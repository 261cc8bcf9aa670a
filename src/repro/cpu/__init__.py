"""Processor models: ISA, single-issue pipeline, reference loops."""

from repro.cpu.isa import (
    FP_BASE,
    NUM_FP_REGS,
    NUM_INT_REGS,
    NUM_REGS,
    Instruction,
    OpClass,
    is_fp_reg,
    is_int_reg,
    reg_name,
)
from repro.cpu.pipeline import PerfectCacheHandler, run_single_issue

__all__ = [
    "Instruction",
    "OpClass",
    "NUM_REGS",
    "NUM_INT_REGS",
    "NUM_FP_REGS",
    "FP_BASE",
    "is_int_reg",
    "is_fp_reg",
    "reg_name",
    "run_single_issue",
    "PerfectCacheHandler",
]
