"""The bounded memo behind the simulator's process-global caches."""

from repro.memo import MEMO_CAP, BoundedMemo


class TestBoundedMemo:
    def test_put_returns_the_value_and_get_hits(self):
        memo = BoundedMemo()
        value = ("decoded", 1)
        assert memo.put(b"wire", value) is value
        assert memo.get(b"wire") is value
        assert memo.get(b"other") is None

    def test_present_value_comes_back_unchanged(self):
        memo = BoundedMemo()
        first, second = object(), object()
        memo.put("key", first)
        assert memo.get("key") is first
        memo.put("key", second)
        assert memo.get("key") is second
        assert len(memo) == 1

    def test_insert_at_the_cap_clears_the_table(self):
        memo = BoundedMemo()
        memo.update((index, index) for index in range(MEMO_CAP - 1))
        memo.put("last", "fits")
        assert len(memo) == MEMO_CAP
        memo.put("over", "clears")
        assert dict(memo) == {"over": "clears"}

    def test_is_a_plain_dict(self):
        memo = BoundedMemo()
        assert isinstance(memo, dict)
        assert BoundedMemo.get is dict.get
        assert not hasattr(memo, "__dict__")
