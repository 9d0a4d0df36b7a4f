"""The benchmark's four seeded workloads.

Each workload splits into the steps the runner times separately:

* ``generate(seed)`` — every request, input and label, derived from the
  workload seed alone.  The program only ever sees these arrays.
* ``setup(inputs)`` — what a user pays before the first answer: model
  build, demo training, pool boot and plan warm-up.  Model-weight
  seeds are fixed at :data:`MODEL_SEED`.
* ``reference(state, inputs)`` — every request's expected answer,
  computed in-process before any timing.
* ``drive(state, inputs, expected, seconds)`` — the timed closed loop.
  Every reply is checked against its expected answer; a mismatch or an
  exception counts as a failed request.
* ``teardown(state)`` — stop every worker process the set-up started.
"""

from __future__ import annotations

import math
import os
import statistics
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from repro import MLP
from repro.data.synthetic_images import SyntheticImageTask
from repro.diagnose.demo import make_demo_data, train_demo_model
from repro.models.transformer import TransformerEncoder
from repro.models.vgg import SlicedVGG
from repro.optim.sgd import SGD
from repro.runtime.cascade import CascadeExecutor, CascadeStage
from repro.runtime.workers import ProcessReplicaPool
from repro.slicing.plans import compile_plan
from repro.slicing.profile import LayerProfile
from repro.slicing.schemes import RandomStaticScheme
from repro.slicing.trainer import SliceTrainer

#: Seed of every model's initial weights (and of the demo training run).
MODEL_SEED = 0

#: Worker processes per serving pool.
WORKERS = 2

# serve_small
SMALL_SHAPE = (64, [256, 256], 10)
SMALL_PROFILES = (0.25, 0.5, 1.0, LayerProfile({"fc0": 0.5, "fc1": 0.75}))
SMALL_REQUESTS = 512
SMALL_MAX_ROWS = 8

# serve_batch
IMAGE_BATCH = 32
IMAGE_BATCHES = 32            # half per pool
BATCHES_PER_CALL = 4          # one predict_many call
BATCH_RATES = (0.5, 1.0)

# cascade
CASCADE_STAGES = (CascadeStage(0.25, 1.0), CascadeStage(0.5, 1.0),
                  CascadeStage(1.0))
CASCADE_ROWS = 64
CASCADE_REQUESTS = 64

# train
TRAIN_RATES = (0.25, 0.5, 0.75, 1.0)
TRAIN_LR = 0.05

#: Untimed requests each caller sends before the clock starts.
WARMUP_REQUESTS = 8


def derive_seed(seed: int, tag: str) -> int:
    """A per-workload stream seed: distinct from the model seed."""
    state = np.random.SeedSequence([int(seed), zlib.crc32(tag.encode())])
    return int(state.generate_state(1)[0])


def smaps_mb(pid: int, key: str) -> float:
    """One ``/proc/<pid>/smaps_rollup`` field of one process, in MiB."""
    with open(f"/proc/{pid}/smaps_rollup") as handle:
        for line in handle:
            if line.startswith(key + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no {key} line for pid {pid}")


def pss_mb(pid: int) -> float:
    """Proportional set size of one process, in MiB."""
    return smaps_mb(pid, "Pss")


def anon_mb(pid: int) -> float:
    """Resident anonymous memory of one process, in MiB.

    Unlike PSS it does not depend on how many processes still share a
    copy-on-write page: a forked worker's PSS jumps by about 30% when its
    first full garbage collection (after a request count that varies with
    throughput) dirties the heap it inherited.
    """
    return smaps_mb(pid, "Anonymous")


def worker_pids(*pools) -> list[int]:
    return [replica.pid for pool in pools for replica in pool.replicas]


def workers_anon_mb(*pools) -> float:
    return sum(anon_mb(pid) for pid in worker_pids(*pools))


def answer(model, profile, x) -> np.ndarray:
    """The in-process reference: argmax of the compiled plan."""
    return np.argmax(compile_plan(model, profile).run(x), axis=-1)


def image_batches(seed: int, tag: str) -> dict:
    """Seeded 32-image batches (3x16x16) and their labels."""
    stream = derive_seed(seed, tag)
    task = SyntheticImageTask(num_classes=8, image_size=16, seed=stream)
    rng = np.random.default_rng(stream)
    labels = rng.integers(0, task.num_classes,
                          size=(IMAGE_BATCHES, IMAGE_BATCH))
    return {"batches": [task.sample(row, rng) for row in labels],
            "labels": list(labels)}


# ----------------------------------------------------------------------
# The timed loop
# ----------------------------------------------------------------------
class Sample(NamedTuple):
    """One timed request (a plain tuple, so the collector skips it)."""

    start: float
    end: float
    rows: int
    ok: bool
    caller: int


@dataclass
class Outcome:
    """What one timed phase produced."""

    samples: list[Sample]
    started: float
    memory_mb: float
    labelled_accuracy: float | None = None   # where answers have labels
    notes: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return sum(not s.ok for s in self.samples)

    @property
    def elapsed(self) -> float:
        return max(s.end for s in self.samples) - self.started

    @property
    def rows_per_s(self) -> float:
        """Closed-loop rate at the median request time.

        Callers x mean rows answered per request / median latency.  On a
        small shared VM, vCPU preemption stalls of 1-50 ms hit a varying
        share of requests and swing :attr:`wall_rows_per_s` by up to 2x
        between otherwise identical runs; the median request is immune.
        """
        callers = len({s.caller for s in self.samples})
        rows = sum(s.rows for s in self.samples if s.ok) / self.attempted
        return callers * rows / statistics.median(self.latencies())

    @property
    def wall_rows_per_s(self) -> float:
        """Rows answered per wall second of the timed phase."""
        return sum(s.rows for s in self.samples if s.ok) / self.elapsed

    @property
    def accuracy(self) -> float:
        """Share of answers equal to their label; without dataset labels
        the label is the in-process reference answer."""
        if self.labelled_accuracy is not None:
            return self.labelled_accuracy
        return 1.0 - self.failed / self.attempted

    def latencies(self) -> list[float]:
        return [s.end - s.start for s in self.samples]


def closed_loop(callers: list[Callable[[int], tuple[int, bool]]],
                seconds: float) -> tuple[list[Sample], float]:
    """Run each caller in its own thread, one request outstanding each.

    ``caller(i)`` sends request ``i`` and returns ``(rows, ok)``.  Each
    caller first sends :data:`WARMUP_REQUESTS` untimed requests; timing
    starts once every caller has warmed up and stops at the first
    request boundary after ``seconds``.
    """
    samples: list[list[Sample]] = [[] for _ in callers]
    errors: list[BaseException] = []
    ready = threading.Barrier(len(callers) + 1)
    go = threading.Event()
    clock = {}

    def loop(index: int, call) -> None:
        try:
            for i in range(WARMUP_REQUESTS):
                call(i)
        except Exception as exc:          # reported after the phase
            errors.append(exc)
        ready.wait()
        go.wait()
        deadline = clock["deadline"]
        i = WARMUP_REQUESTS
        while True:
            start = time.perf_counter()
            if start >= deadline:
                break
            try:
                rows, ok = call(i)
            except Exception:
                rows, ok = 0, False
            samples[index].append(
                Sample(start, time.perf_counter(), rows, ok, index))
            i += 1

    threads = [threading.Thread(target=loop, args=(k, call), daemon=True)
               for k, call in enumerate(callers)]
    for thread in threads:
        thread.start()
    ready.wait()
    started = time.perf_counter()
    clock["deadline"] = started + seconds
    go.set()
    for thread in threads:
        thread.join()
    if errors:
        raise RuntimeError(f"warm-up request failed: {errors[0]!r}")
    return [s for per_caller in samples for s in per_caller], started


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    name = ""
    why = ""      # one line: load shape, and the layers it stresses

    def generate(self, seed: int) -> dict:
        raise NotImplementedError

    def setup(self, inputs: dict) -> dict:
        raise NotImplementedError

    def reference(self, state: dict, inputs: dict):
        raise NotImplementedError

    def drive(self, state: dict, inputs: dict, expected,
              seconds: float) -> Outcome:
        raise NotImplementedError

    def teardown(self, state: dict) -> None:
        for pool in state.get("pools", ()):
            pool.shutdown()


class ServeSmall(Workload):
    name = "serve_small"
    why = ("Closed loop, 2 callers (1 per worker, 1 request outstanding each), "
           "MLP requests of 1-8 rows: pipe IPC, pickling, sync, arena refresh "
           "and plan-cache lookups dominate")

    def generate(self, seed):
        rng = np.random.default_rng(derive_seed(seed, self.name))
        rows = rng.integers(1, SMALL_MAX_ROWS + 1, size=SMALL_REQUESTS)
        choice = rng.integers(0, len(SMALL_PROFILES), size=SMALL_REQUESTS)
        xs = [rng.normal(size=(int(n), SMALL_SHAPE[0])).astype(np.float32)
              for n in rows]
        return {"xs": xs, "profiles": [int(c) for c in choice]}

    def setup(self, inputs):
        in_features, hidden, classes = SMALL_SHAPE
        model = MLP(in_features, hidden, classes, seed=MODEL_SEED).eval()
        pool = ProcessReplicaPool(model, WORKERS, seed=MODEL_SEED)
        pool.warm_plans(SMALL_PROFILES)
        return {"model": model, "pools": [pool]}

    def reference(self, state, inputs):
        return [answer(state["model"], SMALL_PROFILES[k], x)
                for x, k in zip(inputs["xs"], inputs["profiles"])]

    def drive(self, state, inputs, expected, seconds):
        pool = state["pools"][0]
        xs, profiles = inputs["xs"], inputs["profiles"]

        def caller(replica, offset):
            def call(i):
                k = (offset + WORKERS * i) % len(xs)
                got = replica.predict(xs[k], SMALL_PROFILES[profiles[k]])
                return len(xs[k]), np.array_equal(got, expected[k])
            return call

        samples, started = closed_loop(
            [caller(r, j) for j, r in enumerate(pool.replicas)], seconds)
        return Outcome(samples, started, workers_anon_mb(pool))


class ServeBatch(Workload):
    name = "serve_batch"
    why = ("Closed loop, 1 caller, predict_many of 4 batches (default window): "
           "32-image batches through 2-worker GN-VGG and Transformer pools; "
           "conv, norm, attention and FFN steps dominate")

    def generate(self, seed):
        return image_batches(seed, self.name)

    def setup(self, inputs):
        models = [SlicedVGG.cifar_mini(width=16, seed=MODEL_SEED).eval(),
                  TransformerEncoder(seed=MODEL_SEED).eval()]
        pools = []
        try:
            for model in models:
                pools.append(ProcessReplicaPool(model, WORKERS,
                                                seed=MODEL_SEED))
                pools[-1].warm_plans(BATCH_RATES)
        except Exception:
            for pool in pools:
                pool.shutdown()
            raise
        return {"models": models, "pools": pools}

    @staticmethod
    def calls():
        """One round: (pool index, rate) per predict_many call."""
        return [(p, rate) for rate in BATCH_RATES for p in (0, 1)]

    def reference(self, state, inputs):
        half = IMAGE_BATCHES // 2
        return {(p, rate): [answer(state["models"][p], rate, batch)
                            for batch in inputs["batches"][p * half:
                                                           (p + 1) * half]]
                for p, rate in self.calls()}

    def drive(self, state, inputs, expected, seconds):
        pools = state["pools"]
        half = IMAGE_BATCHES // 2
        cursor = [0, 0]

        def round_trip(_):
            rows, ok = 0, True
            for p, rate in self.calls():
                picks = [(cursor[p] + j) % half
                         for j in range(BATCHES_PER_CALL)]
                cursor[p] += BATCHES_PER_CALL
                batches = [inputs["batches"][p * half + k] for k in picks]
                got = pools[p].predict_many(batches, rate)
                rows += sum(len(b) for b in batches)
                ok &= all(np.array_equal(g, expected[(p, rate)][k])
                          for g, k in zip(got, picks))
            return rows, ok

        samples, started = closed_loop([round_trip], seconds)
        return Outcome(samples, started, workers_anon_mb(*pools))


class Cascade(Workload):
    name = "cascade"
    why = ("Closed loop, 2 callers (1 per worker): 64-row requests through a "
           "0.25>0.5>1.0 confidence cascade in the workers; resumable "
           "run/subset/widen on the canonical GEMM dominates")

    def generate(self, seed):
        data = make_demo_data(derive_seed(seed, self.name), num_train=0,
                              num_eval=CASCADE_ROWS * CASCADE_REQUESTS)
        xs = data["eval_x"].astype(np.float32).reshape(
            CASCADE_REQUESTS, CASCADE_ROWS, -1)
        ys = data["eval_y"].reshape(CASCADE_REQUESTS, CASCADE_ROWS)
        return {"xs": list(xs), "ys": list(ys)}

    def setup(self, inputs):
        model, _ = train_demo_model(seed=MODEL_SEED)
        model.eval()
        executor = CascadeExecutor(model, CASCADE_STAGES)
        pool = ProcessReplicaPool(model, WORKERS, seed=MODEL_SEED)
        try:
            pool.warm_cascade(executor)
        except Exception:
            pool.shutdown()
            raise
        return {"model": model, "executor": executor, "pools": [pool]}

    def reference(self, state, inputs):
        """Recompute-from-scratch escalation: bitwise equal in exact mode."""
        recompute = CascadeExecutor(state["model"], CASCADE_STAGES,
                                    incremental=False)
        return [recompute.run_batch(x).predictions for x in inputs["xs"]]

    def drive(self, state, inputs, expected, seconds):
        pool = state["pools"][0]
        xs = inputs["xs"]
        last: dict[int, np.ndarray] = {}

        def caller(replica, offset):
            def call(i):
                k = (offset + WORKERS * i) % len(xs)
                got = replica.run_cascade(xs[k]).predictions
                last[k] = got
                return len(xs[k]), np.array_equal(got, expected[k])
            return call

        samples, started = closed_loop(
            [caller(r, j) for j, r in enumerate(pool.replicas)], seconds)
        ys = inputs["ys"]
        answered = sorted(last)
        correct = sum(int(np.sum(last[k] == ys[k])) for k in answered)
        rows = sum(len(ys[k]) for k in answered)
        baseline = sum(int(np.sum(expected[k] == ys[k])) for k in answered)
        return Outcome(samples, started, workers_anon_mb(pool), correct / rows,
                       notes={"recompute_accuracy": baseline / rows,
                              "distinct_requests": len(answered)})


class Train(Workload):
    name = "train"
    why = ("Closed loop, 1 caller: back-to-back Algorithm-1 train_batch steps "
           "on GN-VGG in one process; the only workload running autograd, the "
           "workspace arena and SGD")

    def generate(self, seed):
        return image_batches(seed, self.name)

    def setup(self, inputs):
        model = SlicedVGG.cifar_mini(width=16, seed=MODEL_SEED)
        trainer = SliceTrainer(
            model, RandomStaticScheme(list(TRAIN_RATES), num_random=1),
            SGD(model.parameters(), lr=TRAIN_LR),
            rng=np.random.default_rng(MODEL_SEED))
        trainer.train_batch(inputs["batches"][0], inputs["labels"][0])
        return {"model": model, "trainer": trainer}

    def reference(self, state, inputs):
        return []          # training is checked by finite losses

    def drive(self, state, inputs, expected, seconds):
        trainer = state["trainer"]
        batches, labels = inputs["batches"], inputs["labels"]
        full_losses: list[float] = []

        def step(i):
            k = (1 + i) % len(batches)
            losses = trainer.train_batch(batches[k], labels[k])
            full_losses.append(losses[max(losses)])
            return len(batches[k]), all(map(math.isfinite, losses.values()))

        samples, started = closed_loop([step], seconds)
        timed = full_losses[WARMUP_REQUESTS:]
        return Outcome(samples, started, anon_mb(os.getpid()),
                       notes={"train_loss": float(np.mean(timed))})


WORKLOADS: dict[str, Workload] = {
    wl.name: wl for wl in (ServeSmall(), ServeBatch(), Cascade(), Train())}
