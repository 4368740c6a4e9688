"""Grid expansion: canonical order and empty-grid rejection."""

import itertools

import pytest

from repro.parallel import expand_grid


class TestExpandGrid:
    def test_canonical_order_is_product_order(self):
        grid = {"a": [1, 2], "b": ["x", "y", "z"], "c": [0.5]}
        names, cells = expand_grid(grid)
        assert names == ["a", "b", "c"]
        expected = [dict(zip(names, combo)) for combo in
                    itertools.product(grid["a"], grid["b"], grid["c"])]
        assert cells == expected

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty parameter grid"):
            expand_grid({})
        with pytest.raises(ValueError, match="'b' has no values"):
            expand_grid({"a": [1], "b": []})
