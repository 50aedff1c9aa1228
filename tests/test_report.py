"""The canonical report renderer."""
import pytest

from polyeval.core import EvalConfig, Turn
from polyeval.diversity import DiversityReport
from polyeval.errors import ValidationError
from polyeval.report import render_report


def test_lists_and_tuples_render_as_json_arrays():
    assert render_report({"a": [1, (2.5, "x")], "b": ()}) == '{"a":[1,[2.5,"x"]],"b":[]}\n'


@pytest.mark.parametrize("record", [
    DiversityReport(1.0, 2.0, 3.0, 4), Turn("Speaker (A)", "hi"), EvalConfig(),
], ids=lambda record: type(record).__name__)
def test_a_record_in_a_report_body_is_refused(record):
    # a record is a tuple, but a report names each value it holds
    message = f"^cannot render {type(record).__name__} in a report$"
    with pytest.raises(ValidationError, match=message):
        render_report({"x": record})
