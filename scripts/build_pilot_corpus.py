#!/usr/bin/env python3
"""Regenerate the shipped Italian pilot corpus (JSONL).

Each entry below gives the utterance, the preference substrings to mark as
spans (offsets are computed with str.find, so the substrings must occur
exactly once), and the gold constraints.  Output is validated by loading
it back before it replaces the resource file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pref2constraint.dataset import load_dataset, pilot_corpus_path  # noqa: E402

OUT = pilot_corpus_path()

# (text, [(span substring, kind)], [gold constraints])
ENTRIES = [
    (
        "ho bisogno che l'acqua calda sia disponibile dalle 7 alle 8,30",
        [("dalle 7 alle 8,30", "time")],
        ["s_t = 1 ∀ 07:00 ≤ t ≤ 08:30"],
    ),
    (
        "come risparmiare tenendo il climatizzatore sempre acceso?",
        [("sempre acceso", "time")],
        ["s_t = 1 ∀ t"],
    ),
    (
        "vorrei che la pompa di calore restasse spenta dopo le 23, c'è troppo rumore",
        [("spenta dopo le 23", "time")],
        ["s_t = 0 ∀ t ≥ 23:00"],
    ),
    (
        "imposta l'acqua del boiler a 45 gradi per tutto il giorno",
        [("a 45 gradi", "temperature"), ("per tutto il giorno", "time")],
        ["h_t = 45 ∀ t"],
    ),
    (
        "accendi la lavastoviglie dalle 13 alle 14,30",
        [("dalle 13 alle 14,30", "time")],
        ["s_t = 1 ∀ 13:00 ≤ t ≤ 14:30"],
    ),
    (
        "il riscaldamento deve rimanere spento fino alle 6 del mattino",
        [("spento fino alle 6", "time")],
        ["s_t = 0 ∀ t ≤ 06:00"],
    ),
    (
        "vorrei la temperatura del soggiorno a 21 gradi dalle 18 in poi",
        [("a 21 gradi", "temperature"), ("dalle 18 in poi", "time")],
        ["h_t = 21 ∀ t ≥ 18:00"],
    ),
    (
        "fai partire la lavatrice dopo le 22, quando l'energia costa meno",
        [("dopo le 22", "time")],
        ["s_t = 1 ∀ t ≥ 22:00"],
    ),
    (
        "tieni lo scaldabagno acceso fino alle 9,15",
        [("acceso fino alle 9,15", "time")],
        ["s_t = 1 ∀ t ≤ 09:15"],
    ),
    (
        "spegni il condizionatore dalle 12 alle 15, tanto non c'è nessuno",
        [("dalle 12 alle 15", "time")],
        ["s_t = 0 ∀ 12:00 ≤ t ≤ 15:00"],
    ),
    (
        "l'acqua calda deve essere sempre disponibile, è importante",
        [("sempre disponibile", "time")],
        ["s_t = 1 ∀ t"],
    ),
    (
        "porta l'acqua a 50 gradi prima delle 7,45",
        [("a 50 gradi", "temperature"), ("prima delle 7,45", "time")],
        ["h_t = 50 ∀ t ≤ 07:45"],
    ),
    (
        "il condizionatore non deve funzionare dopo le 23",
        [("non deve funzionare dopo le 23", "time")],
        ["s_t = 0 ∀ t ≥ 23:00"],
    ),
    (
        "accendi la pompa di calore alle 6 e spegnila alle 8",
        [("alle 6 e spegnila alle 8", "time")],
        ["s_t = 1 ∀ 06:00 ≤ t ≤ 08:00"],
    ),
    (
        "voglio 19,5 gradi in camera da letto fino alle 7",
        [("19,5 gradi", "temperature"), ("fino alle 7", "time")],
        ["h_t = 19.5 ∀ t ≤ 07:00"],
    ),
    (
        "metti in funzione l'asciugatrice dalle 11,45 alle 13",
        [("dalle 11,45 alle 13", "time")],
        ["s_t = 1 ∀ 11:45 ≤ t ≤ 13:00"],
    ),
    (
        "la piastra a induzione resti spenta fino alle 17,30",
        [("spenta fino alle 17,30", "time")],
        ["s_t = 0 ∀ t ≤ 17:30"],
    ),
    (
        "scalda la casa a 22 gradi dalle 7 alle 10, poi si vedrà",
        [("a 22 gradi", "temperature"), ("dalle 7 alle 10", "time")],
        ["h_t = 22 ∀ 07:00 ≤ t ≤ 10:00"],
    ),
    (
        "il frigorifero deve restare sempre acceso, ovviamente",
        [("sempre acceso", "time")],
        ["s_t = 1 ∀ t"],
    ),
    (
        "niente lavatrice prima delle 8, i vicini si lamentano",
        [("niente lavatrice prima delle 8", "time")],
        ["s_t = 0 ∀ t ≤ 08:00"],
    ),
    (
        "dalle 14 in avanti tieni acceso il deumidificatore",
        [("dalle 14 in avanti", "time")],
        ["s_t = 1 ∀ t ≥ 14:00"],
    ),
    (
        "abbassa il boiler a 38,5 gradi dopo le 21",
        [("a 38,5 gradi", "temperature"), ("dopo le 21", "time")],
        ["h_t = 38.5 ∀ t ≥ 21:00"],
    ),
    (
        "fa' andare la pompa del giardino dalle 5 alle 6,15",
        [("dalle 5 alle 6,15", "time")],
        ["s_t = 1 ∀ 05:00 ≤ t ≤ 06:15"],
    ),
    (
        "tieni il forno spento dalle 18 alle 20, ceniamo tardi",
        [("spento dalle 18 alle 20", "time")],
        ["s_t = 0 ∀ 18:00 ≤ t ≤ 20:00"],
    ),
    (
        "il ricircolo dell'acqua resti acceso fino alle 10,30",
        [("acceso fino alle 10,30", "time")],
        ["s_t = 1 ∀ t ≤ 10:30"],
    ),
    (
        "imposta il termostato a 23 gradi dalle 12,15 alle 16",
        [("a 23 gradi", "temperature"), ("dalle 12,15 alle 16", "time")],
        ["h_t = 23 ∀ 12:15 ≤ t ≤ 16:00"],
    ),
]


def main() -> None:
    lines = []
    for index, (text, span_specs, constraints) in enumerate(ENTRIES, start=1):
        spans = []
        for needle, kind in span_specs:
            start = text.find(needle)
            if start < 0 or text.find(needle, start + 1) >= 0:
                raise SystemExit(f"span {needle!r} must occur exactly once in {text!r}")
            spans.append({"start": start, "end": start + len(needle), "kind": kind})
        record = {
            "id": f"u{index:02d}",
            "text": text,
            "spans": spans,
            "constraints": constraints,
        }
        lines.append(json.dumps(record, ensure_ascii=False))

    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text("\n".join(lines) + "\n", encoding="utf-8")
    records = load_dataset(OUT)
    assert len(records) == len(ENTRIES)
    print(f"wrote {len(records)} records to {OUT}")


if __name__ == "__main__":
    main()
