"""The event-log scan matches each line by a lax pattern, whose text after
the ``ts`` may hold any character but ``"\\n"``, and checks each distinct
text once against the exact shape ``json.dumps`` writes.

A field value that holds a line separator of ``str.splitlines`` other than
``"\\n"``, or a ``}``, must give what the former parser gave: the lax
pattern matches such a line, and only the check tells it apart. A ``}``
is valid in a value, so those lines stay on the pattern path, where
``_read_line`` reads each distinct call once.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import _reference_events as reference
from _reference_events import as_events
from msaconform import events
from msaconform.events import parse_event_log
from test_events_oracle import SEPARATORS, assert_same

VALUES = {"src": ["a", "Web"], "dst": ["b", "order"], "method": ["GET", "post"],
          "path": ["/x", "/y/1"]}
BLOCKS = [1, 40, 100, 250, 1 << 16]


def field(name, odd):
    """A field's text between its quotes, now and then with one of ``odd``
    put in, after a path's leading ``/``."""
    value = st.sampled_from(VALUES[name])
    spliced = st.builds(lambda text, put, at: text[:at] + put + text[at:],
                        value, st.sampled_from(odd), st.integers(1 if name == "path" else 0, 8))
    return st.one_of(value, spliced)


@st.composite
def calls(draw, odd, fields=tuple(VALUES)):
    """A line's text after its ``ts``, in the shape ``json.dumps`` writes,
    with ``odd`` text in the values of ``fields``."""
    values = {name: draw(field(name, odd) if name in fields else st.sampled_from(VALUES[name]))
              for name in VALUES}
    text = ", ".join(f'"{name}": "{value}"' for name, value in values.items())
    return text + draw(st.sampled_from(["", ', "status": 200']))


@st.composite
def logs(draw, odd, fields=tuple(VALUES)):
    """Lines drawn from a few calls, so that most calls repeat."""
    texts = draw(st.lists(calls(odd, fields), min_size=1, max_size=4))
    lines = draw(st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(texts)), max_size=16))
    end = draw(st.sampled_from(["", "\n"]))
    return "\n".join('{"ts": %d, %s}' % line for line in lines) + end


@settings(max_examples=300, deadline=None)
@given(logs([*SEPARATORS, "}", "}}"]), st.sampled_from(BLOCKS))
def test_separator_or_brace_in_a_value_matches_reference(log, block):
    with mock.patch.object(events, "_BLOCK_CHARS", block):
        assert_same(log)


def test_every_separator_in_a_value_matches_reference():
    line = '{"ts": 1, "src": "a", "dst": "b", "method": "GET", "path": "/x%s}"}'
    for sep in SEPARATORS:
        for text in (line % sep, line % "", line % sep + "\n" + line % ""):
            assert_same(text + "\n" + line % "")
            assert_same(line % "" + "\n" + text)


@settings(max_examples=200, deadline=None)
@given(logs(["}", "}}", "} "], fields=("src", "dst", "path")), st.sampled_from(BLOCKS))
def test_brace_in_a_value_reads_each_call_once(log, block):
    with mock.patch.object(events, "_BLOCK_CHARS", block), \
            mock.patch.object(events, "_read_line", wraps=events._read_line) as read_line:
        parsed = parse_event_log(log)
    assert as_events(parsed) == reference.parse_event_log(log)
    distinct = {line.partition(", ")[2] for line in log.splitlines()}  # each line after its ts
    assert read_line.call_count == len(distinct)
