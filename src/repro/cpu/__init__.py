"""Processor models: ISA, perfect-cache handler, reference loop."""

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
from repro.cpu.pipeline import PerfectCacheHandler
from repro.cpu.reference import run_single_issue_reference

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
    "run_single_issue_reference",
    "PerfectCacheHandler",
]
