"""Natural-language appliance preferences as formal scheduling constraints.

Parse and render the constraint notation, ground constraints onto a
slotted day, build prompts and run LLM experiments over the annotated
corpus, score outputs, and check functional correctness against a small
self-consumption scheduler.
"""

__version__ = "0.1.0"
