"""Natural-language appliance preferences as formal scheduling constraints.

Parse and render the constraint notation, ground constraints onto a
slotted day, build prompts and run LLM experiments over the annotated
corpus, score outputs, and check functional correctness against a small
self-consumption scheduler.
"""

__version__ = "0.1.0"

from .constraints import (
    All,
    Binary,
    Constraint,
    Degrees,
    From,
    Range,
    TimePoint,
    Until,
    Variable,
    canonicalize,
    extract_constraints,
    parse_constraint,
    render_constraint,
)
from .dataset import GoldRecord, Span, load_dataset, load_pilot_corpus, tag_utterance
from .grounding import GroundedAssignment, Horizon, ground, merge
from .metrics import acc_conditions, acc_variables, chrf, evaluate_run
from .prompting import ExamplePool, PromptSpec, ShotSetting, build_prompt, select_examples
from .scheduler import Appliance, ScheduleProblem, check_functional, solve

__all__ = [
    "All",
    "Appliance",
    "Binary",
    "Constraint",
    "Degrees",
    "ExamplePool",
    "From",
    "GoldRecord",
    "GroundedAssignment",
    "Horizon",
    "PromptSpec",
    "Range",
    "ScheduleProblem",
    "ShotSetting",
    "Span",
    "TimePoint",
    "Until",
    "Variable",
    "acc_conditions",
    "acc_variables",
    "build_prompt",
    "canonicalize",
    "check_functional",
    "chrf",
    "evaluate_run",
    "extract_constraints",
    "ground",
    "load_dataset",
    "load_pilot_corpus",
    "merge",
    "parse_constraint",
    "render_constraint",
    "select_examples",
    "solve",
    "tag_utterance",
]
