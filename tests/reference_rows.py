"""Baseline scores from an earlier prompting study on this task, stored as
reference fixtures: they pin the report layout and the identity
acc_avg = (acc_variables + acc_conditions) / 2 under 4-digit rounding.
They are not reproducible here (hosted third-party models).
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class ReferenceRow:
    """One published baseline row."""

    model_id: str
    prompt: str
    chrf: float
    acc_variables: float
    acc_conditions: float
    acc_avg: float


REFERENCE_BASELINE_ROWS = (
    ReferenceRow("Cerbero", "0s", 43.0734, 0.7381, 0.1190, 0.4286),
    ReferenceRow("Cerbero", "1s", 35.9382, 0.2619, 0.0, 0.1310),
    ReferenceRow("ChatGPT", "0s", 51.0562, 0.7857, 0.2143, 0.5),
    ReferenceRow("ChatGPT", "1s", 60.8065, 0.7857, 0.119, 0.4524),
    ReferenceRow("ChatGPT", "fs", 69.0289, 0.7619, 0.3571, 0.5595),
    ReferenceRow("LLaMAntino-3-ANITA", "0s", 37.9288, 0.5, 0.0714, 0.2857),
    ReferenceRow("LLaMAntino-3-ANITA", "1s", 66.238, 0.7222, 0.2857, 0.504),
    ReferenceRow("LLaMAntino-3-ANITA", "fs", 74.5472, 0.8571, 0.4286, 0.6429),
    ReferenceRow("Maestrale", "0s", 33.8217, 0.2063, 0.0238, 0.1151),
    ReferenceRow("Maestrale", "1s", 59.0048, 0.7619, 0.3571, 0.5595),
    ReferenceRow("IT5", "-", 47.0815, 0.4545, 0.2, 0.3273),
)
