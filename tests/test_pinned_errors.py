"""Exit-1 messages of ``eta`` and ``k-estimate`` on malformed towers and on
element names that are not canonical, pinned byte for byte.

The expected texts in ``data/pinned_errors.json`` were captured from the
implementation that still looked names up in a per-level dict, so they pin
what the arithmetic name parser must keep.  The malformed specs are
non-central and wrong-prime amalgams, a composite p, an unknown or
non-canonical y, a recipe that moves y, m = 3, an inexpressible recipe
offset, and non-normal, unknown or non-canonical quotient generators.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from rootsets.cli import build_tower, main, parse_spec
from rootsets.kernel import InvalidElementError

ROOT = Path(__file__).resolve().parent.parent
PINNED = json.loads((ROOT / "tests" / "data" / "pinned_errors.json").read_text(encoding="utf-8"))


def case_id(case):
    return f"{case['spec']}|{' '.join(case['args'])!r}"


@pytest.mark.parametrize("case", PINNED["cli"], ids=case_id)
def test_exit_1_message_is_pinned(case, tmp_path):
    spec = case["spec"]
    if spec in PINNED["specs"]:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(PINNED["specs"][spec]), encoding="utf-8")
    else:
        path = ROOT / spec
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([case["args"][0], str(path)] + case["args"][1:])
    assert code == 1
    assert out.getvalue() == case["stdout"]


@pytest.mark.parametrize("name", sorted(PINNED["id_of"]))
def test_level_lookup_messages_are_pinned(name):
    path = ROOT / "specs" / f"{name}.json"
    tower = build_tower(parse_spec(path.read_text(encoding="utf-8"), path.parent), path.parent)
    pinned = PINNED["id_of"][name]
    lvl = tower.level(pinned["level"])
    for element, message in pinned["messages"].items():
        if message is None:
            assert lvl.has(element) and lvl.names[lvl.id_of(element)] == element
            continue
        assert not lvl.has(element), element
        with pytest.raises(InvalidElementError) as err:
            lvl.id_of(element)
        assert str(err.value) == message
