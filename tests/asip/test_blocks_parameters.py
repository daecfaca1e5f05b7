"""Tests for ASIP customization levels (b) blocks and (c) parameters."""

import pytest

from repro.asip import (
    CustomInstruction,
    ExtensibleProcessor,
    IsaRestrictions,
    IssProfiler,
    PredefinedBlock,
    ProcessorParameters,
    STANDARD_BLOCKS,
    select_blocks,
    voice_recognition_workload,
)


class TestPredefinedBlock:
    def test_validation(self):
        with pytest.raises(ValueError):
            PredefinedBlock("x", gates=0.0)
        with pytest.raises(ValueError):
            PredefinedBlock("x", gates=10.0,
                            kernel_speedups={"k": 0.5})

    def test_speedup_lookup(self):
        block = PredefinedBlock("mac", 1_000.0,
                                kernel_speedups={"fft": 2.0})
        assert block.speedup_for("fft") == 2.0
        assert block.speedup_for("other") == 1.0

    def test_standard_blocks_cover_voice_kernels(self):
        workload = voice_recognition_workload()
        kernel_names = {k.name for k in workload.kernels}
        covered = set()
        for block in STANDARD_BLOCKS:
            covered |= set(block.kernel_speedups) & kernel_names
        assert len(covered) >= 6


class TestSelectBlocks:
    @pytest.fixture
    def profile(self):
        return IssProfiler(ExtensibleProcessor()).run(
            voice_recognition_workload()
        )

    def test_budget_respected(self, profile):
        chosen = select_blocks(profile, STANDARD_BLOCKS,
                               gate_budget=13_000.0)
        assert sum(b.gates for b in chosen) <= 13_000.0
        assert chosen  # the MAC fits

    def test_zero_budget_selects_nothing(self, profile):
        assert select_blocks(profile, STANDARD_BLOCKS, 0.0) == []

    def test_negative_budget_rejected(self, profile):
        with pytest.raises(ValueError):
            select_blocks(profile, STANDARD_BLOCKS, -1.0)

    def test_instruction_coverage_discounts_blocks(self, profile):
        # An instruction already accelerating the MAC kernels makes the
        # MAC block much less attractive.
        existing = {
            "fft_butterfly": 14.0, "mel_filterbank": 12.0,
            "dct_mfcc": 12.0, "gaussian_eval": 11.0,
        }
        with_coverage = select_blocks(
            profile, STANDARD_BLOCKS, 40_000.0,
            existing_speedups=existing,
        )
        without = select_blocks(profile, STANDARD_BLOCKS, 40_000.0)
        assert "mac" in [b.name for b in without]
        # With instructions covering its kernels the MAC may still be
        # picked last or dropped; its *benefit* must have fallen below
        # the uncovered blocks' (check ordering via selection).
        names_with = [b.name for b in with_coverage]
        assert names_with[0] != "mac"

    def test_unknown_kernels_ignored(self, profile):
        alien = PredefinedBlock("alien", 1_000.0,
                                kernel_speedups={"no_such": 5.0})
        assert select_blocks(profile, [alien], 10_000.0) == []


class TestProcessorParameters:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProcessorParameters(icache_kb=0.0)
        with pytest.raises(ValueError):
            ProcessorParameters(n_registers=4)

    def test_miss_rate_sqrt2_rule(self):
        small = ProcessorParameters(icache_kb=4.0)
        large = ProcessorParameters(icache_kb=16.0)
        assert small.icache_miss_rate() == pytest.approx(
            2 * large.icache_miss_rate()
        )

    def test_bigger_cache_lower_multiplier(self):
        small = ProcessorParameters(icache_kb=2.0, dcache_kb=2.0)
        large = ProcessorParameters(icache_kb=32.0, dcache_kb=32.0)
        assert large.cycle_multiplier() < small.cycle_multiplier()

    def test_more_registers_less_spill(self):
        few = ProcessorParameters(n_registers=8)
        many = ProcessorParameters(n_registers=64)
        assert many.spill_overhead() < few.spill_overhead()

    def test_endianness_mismatch_costs(self):
        params = ProcessorParameters(little_endian=True)
        match = params.cycle_multiplier(stream_little_endian=True)
        mismatch = params.cycle_multiplier(stream_little_endian=False)
        assert mismatch > match

    def test_gates_grow_with_structures(self):
        small = ProcessorParameters(icache_kb=2.0, dcache_kb=2.0,
                                    n_registers=16)
        large = ProcessorParameters(icache_kb=32.0, dcache_kb=32.0,
                                    n_registers=64)
        assert large.gates() > small.gates()


class TestProcessorIntegration:
    def test_none_parameters_neutral(self):
        assert ExtensibleProcessor().cycle_multiplier() == 1.0

    def test_default_parameters_neutral(self):
        proc = ExtensibleProcessor(parameters=ProcessorParameters())
        assert proc.cycle_multiplier() == pytest.approx(1.0)

    def test_bigger_caches_speed_up_everything(self):
        workload = voice_recognition_workload()
        base = ExtensibleProcessor()
        tuned = base.with_customization(
            parameters=ProcessorParameters(icache_kb=32.0,
                                           dcache_kb=32.0),
        )
        speedup = IssProfiler(tuned).speedup_over(workload, base)
        assert speedup > 1.1

    def test_instruction_subsumes_block(self):
        block = PredefinedBlock("mac", 1_000.0,
                                kernel_speedups={"fft": 2.0})
        instr = CustomInstruction("xt_fft", "fft", 10.0, 5_000.0)
        proc = ExtensibleProcessor(
            restrictions=IsaRestrictions(gate_budget=500_000.0),
            extensions=[instr], blocks=[block],
        )
        assert proc.speedup_for("fft") == 10.0  # max, not product

    def test_block_covers_kernels_instructions_miss(self):
        block = PredefinedBlock("mac", 1_000.0,
                                kernel_speedups={"other": 3.0})
        proc = ExtensibleProcessor(blocks=[block])
        assert proc.speedup_for("other") == 3.0

    def test_gate_count_includes_everything(self):
        proc = ExtensibleProcessor(
            base_gates=50_000.0,
            restrictions=IsaRestrictions(gate_budget=500_000.0),
            extensions=[CustomInstruction("a", "k", 2.0, 10_000.0)],
            blocks=[PredefinedBlock("b", 5_000.0)],
            parameters=ProcessorParameters(icache_kb=8.0,
                                           dcache_kb=8.0,
                                           n_registers=32),
        )
        expected = 50_000 + 10_000 + 5_000 + (1_100 * 16 + 220 * 32)
        assert proc.gate_count() == pytest.approx(expected)

    def test_with_customization_preserves_unset_levels(self):
        block = PredefinedBlock("b", 5_000.0)
        proc = ExtensibleProcessor(blocks=[block])
        clone = proc.with_customization(
            parameters=ProcessorParameters(),
        )
        assert clone.blocks == [block]
        assert clone.parameters is not None

    def test_gate_budget_enforced_across_levels(self):
        with pytest.raises(ValueError, match="gate budget"):
            ExtensibleProcessor(
                base_gates=150_000.0,
                restrictions=IsaRestrictions(gate_budget=200_000.0),
                parameters=ProcessorParameters(icache_kb=32.0,
                                               dcache_kb=32.0),
            )
