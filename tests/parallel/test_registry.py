"""Registry + ``repro sweep`` CLI tests."""

import pytest

from repro.cli import build_parser, main
from repro.parallel import (
    SweepSpec,
    available_sweeps,
    get_sweep,
    register_sweep,
    run_registered,
)
from repro.parallel.registry import _REGISTRY


def toy_cell(k):
    return {"twice": 2.0 * k}


@pytest.fixture
def scratch_spec():
    spec = SweepSpec(name="_scratch", scenario=toy_cell,
                     grid={"k": [1.0, 2.0]}, description="test-only")
    yield spec
    _REGISTRY.pop("_scratch", None)


class TestRegistry:
    def test_stock_sweeps_registered(self):
        names = {s.name for s in available_sweeps()}
        assert {"footprint", "backfill-delay", "spin"} <= names

    def test_register_get_roundtrip(self, scratch_spec):
        register_sweep(scratch_spec)
        assert get_sweep("_scratch") is scratch_spec
        assert scratch_spec.cell_count() == 2

    def test_duplicate_registration_rejected(self, scratch_spec):
        register_sweep(scratch_spec)
        with pytest.raises(ValueError, match="already registered"):
            register_sweep(scratch_spec)
        register_sweep(scratch_spec, replace=True)  # explicit is fine

    def test_unknown_sweep_names_known_ones(self):
        with pytest.raises(KeyError, match="footprint"):
            get_sweep("no-such-sweep")

    def test_run_registered(self, scratch_spec):
        register_sweep(scratch_spec)
        r = run_registered("_scratch", workers=1)
        assert r.column("twice") == [2.0, 4.0]

    def test_grid_override_replaces_values(self, scratch_spec):
        register_sweep(scratch_spec)
        r = run_registered("_scratch", grid_overrides={"k": [5.0]})
        assert r.column("twice") == [10.0]

    def test_unknown_override_parameter_rejected(self, scratch_spec):
        register_sweep(scratch_spec)
        with pytest.raises(ValueError, match="no parameter"):
            run_registered("_scratch", grid_overrides={"typo": [1]})

    def test_registered_parallel_equals_serial(self):
        serial = run_registered("footprint", workers=1)
        parallel = run_registered("footprint", workers=2)
        assert parallel.rows == serial.rows


class TestCli:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["sweep", "footprint"])
        assert args.workers == 1
        assert not args.no_strict

    def test_list(self, capsys):
        assert main(["sweep", "--list"]) == 0
        out = capsys.readouterr().out
        assert "footprint" in out and "spin" in out

    def test_run_footprint(self, capsys):
        assert main(["sweep", "footprint", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "embodied_share" in out
        assert "cells in" in out and "speedup" in out

    def test_grid_override_flag(self, capsys):
        assert main(["sweep", "footprint",
                     "--set", "lifetime_years=6",
                     "--set", "intensity_g_per_kwh=20,1025"]) == 0
        out = capsys.readouterr().out
        assert "2 cells" in out  # 2 intensities x 1 lifetime

    def test_unknown_scenario_exits(self):
        with pytest.raises(SystemExit, match="unknown sweep"):
            main(["sweep", "no-such-sweep"])

    def test_missing_scenario_exits(self):
        with pytest.raises(SystemExit, match="registered scenario"):
            main(["sweep"])

    def test_bad_set_syntax_exits(self):
        with pytest.raises(SystemExit, match="bad --set"):
            main(["sweep", "footprint", "--set", "oops"])
