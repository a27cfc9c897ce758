"""The observer channel contract, checked once for every channel."""

from __future__ import annotations

import pytest

from repro.obs import CHANNELS


def _section(ch):
    """A minimal valid section: the marker with a value of its type."""
    return {ch.marker: "x" if ch.marker_type is str else []}


@pytest.mark.parametrize("ch", CHANNELS, ids=lambda ch: ch.key)
def test_channel_contract(ch):
    # use: only the channel's own config type, stacked and restored.
    expected = ch.config.__name__ if ch.config else ch.name
    with pytest.raises(TypeError, match=expected):
        with ch.use({"not": "a config"}):
            pass
    assert ch.current() is None
    if ch.config is not None:
        outer, inner = ch.config(), ch.config()
        with ch.use(outer) as got:
            assert got is outer and ch.current() is outer
            with ch.use(inner):
                assert ch.current() is inner
                assert ch.resolve(None) is inner
                assert ch.resolve(outer) is outer
            assert ch.current() is outer
        assert ch.current() is None

    # publish with no sink is a no-op; nested sinks both receive.
    ch.publish(_section(ch))
    first, second = _section(ch), _section(ch)
    with ch.collect() as outer:
        with ch.collect() as inner:
            ch.publish(first)
        ch.publish(second)
    assert len(inner) == 1 and inner[0] is first
    assert len(outer) == 2 and outer[0] is first and outer[1] is second

    # Two equal empty sinks: leaving the inner block detaches the inner
    # one (by identity), not the outer one that compares equal to it.
    a: list = []
    b: list = []
    with ch.collect(a):
        with ch.collect(b):
            pass
        ch.publish(first)
    assert a == [first] and b == []

    # A section without the marker, or with one of the wrong type, is
    # refused; so is a section list that is not a list.
    with pytest.raises(ValueError, match=ch.marker):
        ch.publish({"no": "marker"})
    with pytest.raises(ValueError, match=ch.marker):
        ch.publish({ch.marker: 3.5})
    with pytest.raises(ValueError, match="list"):
        ch.check_list({"not": "a list"}, ch.key)
