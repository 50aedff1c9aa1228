"""Decoding strategies on a deterministic toy language model.

The three generation strategies: plain beam search (one inference per call,
top-k beams), diverse beam search (groups penalized for repeating tokens
chosen by earlier groups at the same step), and the list-style generator
that emits several inferences in one numbered sequence.
"""
from polyeval import (
    BeamConfig,
    NgramLM,
    diverse_beam_search,
    format_polymorphic,
    pack_runs,
    parse_polymorphic,
    sample_sequences,
)

END = "</s>"
lm = NgramLM(
    order=2,
    vocab=["they", "feel", "want", "happy", "proud", "rest", END],
    table={
        (): {"they": 1.0},
        ("they",): {"feel": 0.55, "want": 0.45},
        ("feel",): {"happy": 0.6, "proud": 0.4},
        ("want",): {"rest": 1.0},
        ("happy",): {END: 1.0},
        ("proud",): {END: 1.0},
        ("rest",): {END: 1.0},
    },
    end_token=END,
)

print("beam search, 4 beams:")  # one group: plain beam search
for seq in diverse_beam_search(lm, BeamConfig(beams=4, max_len=6)):
    print(f"  {seq.score:8.4f}  {seq.text}")

print("\ndiverse beam search, 4 beams in 4 groups, penalty 1.5:")
for seq in diverse_beam_search(
    lm, BeamConfig(beams=4, groups=4, diversity_penalty=1.5, max_len=6)
):
    print(f"  {seq.score:8.4f}  {seq.text}")

# List-style outputs ride on the same machinery: the model emits one
# sequence that encodes several inferences.
print("\nnumbered-list codec:")
encoded = format_polymorphic(["they feel proud", "they want rest"])
print("  encoded:", encoded)
print("  decoded:", parse_polymorphic(encoded).items)
messy = parse_polymorphic("(1) they feel proud; (3) they want rest")
print("  tolerant parse:", messy.items, "warnings:", messy.warnings)

list_lm = NgramLM(
    order=2,
    vocab=["(1)", "; (2)", "rest", "pride", END],
    table={
        (): {"(1)": 1.0},
        ("(1)",): {"rest": 0.5, "pride": 0.5},
        ("rest",): {"; (2)": 0.5, END: 0.5},
        ("pride",): {"; (2)": 0.4, END: 0.6},
        ("; (2)",): {"rest": 0.5, "pride": 0.5},
    },
    end_token=END,
)
gen_set, warnings = pack_runs(
    "demo", sample_sequences(list_lm, n=3, temperature=1.0, seed=42, max_len=8)
)
print("\nthree sampled list-style runs (seeded):")
for run in gen_set.runs:
    print("  run:", list(run))
print("  warnings:", warnings)
