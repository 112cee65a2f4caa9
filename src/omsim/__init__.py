"""Deterministic simulator for omission-tolerant randomized consensus.

Synchronous lockstep rounds, adaptive full-information omission adversaries,
expander-style overlay gossip, exact round/bit/randomness accounting, plus a
coin-flipping-game oracle for the randomness lower bound.
"""

from .engine import (
    SystemConfig, Message, ExecutionTrace,
    AdversaryStrategy, AdversaryObservation, adversary_view, run_execution,
    ConfigError, AdversaryViolation, LivenessFailure, BudgetExceeded,
    count_bits, group_index_bits, chain_bits, log2_ceil, isqrt_ceil,
)
from .params import Constants, acceptance, scaled
from .metrics import Metrics, check_lower_bound_product
from .graphs import GraphConfig, OverlayGraph, certify, generate
from .groups import Instance, make_groups
from .consensus import DegenerateInput, MainConsensus, decide_candidate
from .tradeoff import TradeoffConsensus, split_super_processes
from .fallback import ChainFlooder, reference_run, run_fallback
from .adversaries import CoinBiaser, CrashAsOmission, Eclipse
from .coingame import (
    CoinGame, anti_concentration_check, bias_probability, bias_report,
    forcing_set, hiding_budget, min_hiding,
)
from .harness import run_record, run_sweep, to_jsonl, csv_summary
