"""The line a ``malformed dot at line N`` error names is the one the former
formula gave.

That formula counted the newlines from the start of the text up to each
statement's first non-blank character; the parser now carries the count
from statement to statement.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msaconform.automaton import parse_state_machine, serialize_state_machine
from msaconform.errors import InputError


def former_statement_lines(dot_text: str) -> list[int]:
    """Line of each ``;``-separated statement, counted from the start of the text."""
    body = dot_text.strip()[len("digraph sm {"): -1]
    offset = dot_text.index("{") + 1
    lines = []
    for raw_stmt in body.split(";"):
        leading_ws = len(raw_stmt) - len(raw_stmt.lstrip())
        lines.append(dot_text.count("\n", 0, offset + leading_ws) + 1)
        offset += len(raw_stmt) + 1
    return lines


blank = st.text(alphabet=" \t\n", max_size=4)
gap = st.sampled_from([" ", "\n", " \n  ", "\t"])


@st.composite
def dot_texts(draw):
    """A valid chain machine, each statement padded with blanks and newlines (some
    spread over several lines), with at most one bad statement at a drawn index;
    returns the text and the index of the bad statement, or None."""
    n = draw(st.integers(0, 8))
    stmts = ["__start" + draw(gap) + "->" + draw(gap) + "0"]
    for i in range(n):
        stmts.append(f"{i}{draw(gap)}->{draw(gap)}{i + 1}{draw(gap)}"
                     f'[label="a→b:GET /p{i} | {draw(st.integers(1, 9))}"]')
    stmts += [""] * draw(st.integers(0, 3))  # blank statements: ";;"
    bad_at = draw(st.none() | st.integers(0, len(stmts)))
    if bad_at is not None:
        bad = draw(st.sampled_from(
            ["bogus", "bo\ngus", '0 -> 1 [label="hello | 3"', "__start -> 0"]))
        if bad == "__start -> 0" and bad_at == 0:
            bad = "bogus"  # a second __start line must come after the first
        stmts.insert(bad_at, bad)
    pieces = [draw(blank) + stmt + draw(blank) for stmt in stmts]
    head = draw(blank) + "digraph sm {" + draw(st.sampled_from(["", " ", "\n", "\n\n"]))
    text = head + ";".join(pieces) + draw(blank) + "}" + draw(blank)
    return text, bad_at


@settings(max_examples=300, deadline=None)
@given(case=dot_texts())
def test_line_numbers_match_former_formula(case):
    text, bad_at = case
    if bad_at is None:
        sm = parse_state_machine(text)
        assert serialize_state_machine(sm).startswith("digraph sm {\n__start -> 0;\n")
        return
    line_no = former_statement_lines(text)[bad_at]
    with pytest.raises(InputError, match=f"^malformed dot at line {line_no}: "):
        parse_state_machine(text)


@pytest.mark.parametrize("text, line_no", [
    ("digraph sm { bogus;\n__start -> 0;\n}", 1),
    ("\n\n  digraph sm { bogus;\n__start -> 0;\n}", 3),
    ("digraph sm {\n__start -> 0;\n\n\n  0 ->\n 1 [label=\"a→b:GET /x | 1\"];\n\n bogus\n;}", 8),
    ("digraph sm {\n__start -> 0;\n0 -> 1\n[label=\"a→b:GET /x | 1\"]; __start -> 1;\n}", 4),
])
def test_examples(text, line_no):
    with pytest.raises(InputError, match=f"^malformed dot at line {line_no}: "):
        parse_state_machine(text)
