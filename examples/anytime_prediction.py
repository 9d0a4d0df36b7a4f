"""Anytime prediction example — answer now, improve while time allows.

Trains a sliced MLP, then serves predictions through
:func:`~repro.slicing.resume.anytime_predict`: the base subnet answers
immediately; each refinement step widens every layer, reusing the
already-computed base products (Sec. 3.5 of the paper) so the total cost
of refining to full width equals ONE full-width pass.

Run:  python examples/anytime_prediction.py   (~20 seconds)
"""

import numpy as np

from repro import MLP, RandomStaticScheme, SliceTrainer
from repro.data import ArrayDataset, DataLoader
from repro.optim import SGD
from repro.slicing import anytime_predict, scratch_madds

RATES = [0.25, 0.5, 0.75, 1.0]


def main() -> None:
    rng = np.random.default_rng(0)
    weights = rng.normal(size=(16, 4))
    x = rng.normal(size=(1536, 16)).astype(np.float32)
    y = (x @ weights + 0.4 * rng.normal(size=(1536, 4))).argmax(axis=1)
    train = ArrayDataset(x[:1024], y[:1024])
    test_inputs, test_labels = x[1024:], y[1024:]

    model = MLP(16, [64, 64], 4, seed=0)
    trainer = SliceTrainer(model, RandomStaticScheme(RATES, num_random=1),
                           SGD(model.parameters(), lr=0.05, momentum=0.9),
                           rng=np.random.default_rng(1))
    print("training ...")
    trainer.fit(lambda: DataLoader(train, 64, shuffle=True,
                                   rng=np.random.default_rng(2)),
                epochs=25)

    print(f"\n{'rate':>6} {'accuracy':>9} {'step cost':>10} "
          f"{'cumulative':>11} {'from scratch':>13}")
    curve = [{**step,
              "accuracy": (step["logits"].argmax(axis=1)
                           == test_labels).mean(),
              "from_scratch_madds": scratch_madds(model, step["rate"],
                                                  len(test_labels))}
             for step in anytime_predict(model, RATES, test_inputs)]
    for point in curve:
        print(f"{point['rate']:>6} {point['accuracy']:>9.3f} "
              f"{point['step_madds']:>10,} {point['cumulative_madds']:>11,} "
              f"{point['from_scratch_madds']:>13,}")

    rerun = sum(p["from_scratch_madds"] for p in curve)
    print(f"\nrefining to full width cost {curve[-1]['cumulative_madds']:,} "
          f"madds — identical to one full pass; running all four widths "
          f"from scratch would cost {rerun:,}.")

    # A deadline cuts refinement short but always yields an answer.
    budget = curve[1]["cumulative_madds"]
    last = anytime_predict(model, RATES, test_inputs, budget_madds=budget)[-1]
    print(f"under a {budget:,}-madd deadline anytime prediction returned "
          f"the rate-{last['rate']} answer "
          f"({(last['logits'].argmax(axis=1) == test_labels).mean():.3f} "
          f"accuracy)")


if __name__ == "__main__":
    main()
