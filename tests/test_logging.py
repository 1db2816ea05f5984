"""Tests for the logging helpers."""

import logging

from repro.util.logging import get_logger


class TestGetLogger:
    def test_namespaced(self):
        assert get_logger("core.reallocator").name == "repro.core.reallocator"

    def test_already_namespaced(self):
        assert get_logger("repro.wrf.driver").name == "repro.wrf.driver"

    def test_debug_messages_flow(self, caplog):
        from repro.core import ScratchStrategy
        from repro.core.reallocator import ProcessorReallocator
        from repro.perfmodel import ExecTimePredictor, ExecutionOracle, ProfileTable
        from repro.topology import blue_gene_l

        predictor = ExecTimePredictor(ProfileTable(ExecutionOracle()))
        realloc = ProcessorReallocator(blue_gene_l(256), ScratchStrategy(), predictor)
        with caplog.at_level(logging.DEBUG, logger="repro"):
            realloc.step({1: (200, 200)})
        assert any("step 1" in r.message for r in caplog.records)
