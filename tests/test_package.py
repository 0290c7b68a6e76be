import inspect

import cflab
from cflab import exprlang, report

import line_coverage


def test_the_package_exports_its_modules_and_nothing_else():
    assert cflab.__all__ == ["__version__", "casebook", "cycles", "exprlang", "forms",
                             "geometry", "kernels", "report", "parse_expr"]
    assert all(hasattr(cflab, name) for name in cflab.__all__)
    assert cflab.parse_expr is exprlang.parse_expr


def test_the_line_collector_records_the_lines_a_call_runs():
    source, first = inspect.getsourcelines(report.to_csv)
    text = {first + offset: line.strip() for offset, line in enumerate(source)}
    tracer = line_coverage.Tracer()
    tracer.start()
    try:
        report.to_csv([])
    finally:
        tracer.stop()
    run = tracer.hits["report.py"]
    assert run <= line_coverage.executable_lines(line_coverage.PACKAGE / "report.py")
    assert [text[line] for line in sorted(run)] == [
        "def to_csv(checks: list[CheckReport]) -> str:", "buffer = io.StringIO()",
        "writer = csv.writer(buffer, quoting=csv.QUOTE_MINIMAL)",
        "writer.writerow(CSV_COLUMNS)", "for check in checks:", "return buffer.getvalue()"]
    assert line_coverage.stale_reasons() == []
