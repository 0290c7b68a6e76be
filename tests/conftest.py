"""Shared test configuration.

The ``cflab`` hypothesis profile makes property tests reproducible: examples
are derived from each test's name (``derandomize``), no example database is
written, and no deadline applies, since a shared machine's timing varies.
The properties take it as their parent settings; ``pytest
--hypothesis-profile=cflab`` makes it the default for every test.
"""

from hypothesis import settings

settings.register_profile("cflab", derandomize=True, deadline=None,
                          database=None)
