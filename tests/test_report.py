"""Report envelope, volatile-key stripping, canonical rendering."""

import json

from opgraphs import __version__
from opgraphs.report import (
    EXIT_DIVERGENCE,
    EXIT_ERROR,
    EXIT_OK,
    VOLATILE_KEYS,
    build_report,
    render,
    stable_view,
    write_report,
)
from tests.oracles import canonical_json


def test_exit_codes_are_distinct():
    assert (EXIT_OK, EXIT_ERROR, EXIT_DIVERGENCE) == (0, 1, 2)


def test_build_report_shape():
    rep = build_report("enumerate", {"backend": "gf"}, {"count": 378}, elapsed=1.23456)
    assert rep["artifact"] == {"name": "opgraphs", "version": __version__}
    assert rep["command"] == "enumerate"
    assert rep["config"] == {"backend": "gf"}
    assert rep["results"] == {"count": 378}
    assert rep["elapsed_seconds"] == 1.235
    assert "elapsed_seconds" not in build_report("x", {}, {})


def test_stable_view_strips_volatile_keys_recursively():
    assert "elapsed_seconds" in VOLATILE_KEYS
    rep = {
        "elapsed_seconds": 0.5,
        "results": {"elapsed_seconds": 1, "n": 2,
                    "list": [{"elapsed_seconds": 3, "keep": 4}]},
    }
    assert stable_view(rep) == {"results": {"n": 2, "list": [{"keep": 4}]}}


def test_canonical_json_is_sorted_and_compact():
    text = canonical_json({"b": 1, "a": [1, 2]})
    assert text == '{"a":[1,2],"b":1}\n'
    # identical content always renders identically
    assert canonical_json({"a": [1, 2], "b": 1}) == text


def test_render_is_indented_and_sorted():
    text = render({"b": 1, "a": 2})
    assert json.loads(text) == {"a": 2, "b": 1}
    assert text.index('"a"') < text.index('"b"')
    assert "\n" in text


def test_write_report(tmp_path):
    rep = build_report("enumerate", {}, {"n": 1})
    path = tmp_path / "out.json"
    text = write_report(rep, str(path))
    assert json.loads(text) == rep
    assert path.read_text() == text
    # no path: text only
    assert json.loads(write_report(rep)) == rep
