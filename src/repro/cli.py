"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
``info``
    Print library version and the standard experiment configuration.
``demo``
    Train a small sliced model and print its accuracy per rate.
``reproduce ARTIFACT``
    Compute one of the paper's tables/figures via the cached experiment
    suites and print the paper-style rows (same output as the matching
    benchmark, without pytest).
``serve-demo``
    Run the Sec. 4.1 dynamic-workload serving simulation.
``runtime``
    Run the continuous-time multi-replica runtime: dynamic batching,
    slice-rate-aware dispatch, one injected replica crash, and a JSON
    telemetry report (``--json``).  ``--trace PATH`` additionally
    records a deterministic JSONL observability trace (spans, events,
    metrics snapshot) via :mod:`repro.obs`.
``plan``
    Compile per-rate inference plans for a demo model and print, per
    rate, the plan's resident weight size, compile time, and the
    compiled-vs-uncompiled forward latency (see
    :mod:`repro.slicing.plans`).
``obs summarize TRACE [TRACE ...]``
    Summarize one or more JSONL observability traces (globs accepted;
    multiple traces merge): top spans by total time, event counts, and
    the metrics snapshot — histograms include estimated p50/p95/p99 —
    as aligned tables.
``diagnose``
    Train a small sliced demo model and print the slice-quality
    diagnosis: embedding-space error slices with per-profile
    degradation curves, per-layer activation-divergence attribution,
    and the diagnosis-weighted scheduling distribution (byte-identical
    JSON via ``--json``, per-example eval trace via ``--trace``).
"""

from __future__ import annotations

import argparse
import sys

from . import __version__


def _cmd_info(args) -> int:
    from .experiments import ImageExperimentConfig, TextExperimentConfig

    print(f"repro {__version__} — Model Slicing (Cai et al., PVLDB 2019)")
    print("\nimage experiment protocol:")
    for key, value in vars(ImageExperimentConfig()).items():
        print(f"  {key} = {value}")
    print("\ntext experiment protocol:")
    for key, value in vars(TextExperimentConfig()).items():
        print(f"  {key} = {value}")
    return 0


def _cmd_demo(args) -> int:
    import numpy as np

    from .data import ArrayDataset, DataLoader
    from .models import MLP
    from .optim import SGD
    from .slicing import RandomStaticScheme, SliceTrainer

    rng = np.random.default_rng(args.seed)
    weights = rng.normal(size=(16, 4))
    inputs = rng.normal(size=(1536, 16)).astype(np.float32)
    labels = (inputs @ weights).argmax(axis=1)
    train = ArrayDataset(inputs[:1024], labels[:1024])
    test = ArrayDataset(inputs[1024:], labels[1024:])

    rates = [0.25, 0.5, 0.75, 1.0]
    model = MLP(16, [64, 64], 4, seed=args.seed)
    trainer = SliceTrainer(model, RandomStaticScheme(rates, num_random=1),
                           SGD(model.parameters(), lr=0.05, momentum=0.9),
                           rng=rng)
    print(f"training a sliced MLP for {args.epochs} epochs ...")
    trainer.fit(lambda: DataLoader(train, 64, shuffle=True,
                                   rng=np.random.default_rng(args.seed + 1)),
                epochs=args.epochs)
    results = trainer.evaluate(DataLoader(test, 256), rates=rates)
    for rate in rates:
        print(f"  Subnet-{rate}: accuracy {results[rate]['accuracy']:.3f}")
    return 0


ARTIFACTS = {
    "table1": ("vgg_suite", "scheduling_experiment"),
    "table2": ("nnlm_suite", "nnlm_experiment"),
    "table4": ("vgg_suite", "sliced_vgg_experiment"),
    "table5": ("cascade_suite", "cascade_experiment"),
    "figure2": ("resnet_suite", "sliced_resnet_experiment"),
    "figure3": ("vgg_suite", "lower_bound_experiment"),
    "figure4": ("nnlm_suite", "nnlm_experiment"),
    "figure5": ("vgg_suite", "sliced_vgg_experiment"),
    "serving": ("serving_suite", "serving_experiment"),
}


def _cmd_reproduce(args) -> int:
    import importlib
    import json

    from .experiments import (
        ExperimentCache,
        ImageExperimentConfig,
        ServingExperimentConfig,
        TextExperimentConfig,
    )

    if args.artifact not in ARTIFACTS:
        print(f"unknown artifact {args.artifact!r}; choose from "
              f"{sorted(ARTIFACTS)}", file=sys.stderr)
        return 2
    module_name, func_name = ARTIFACTS[args.artifact]
    module = importlib.import_module(f"repro.experiments.{module_name}")
    func = getattr(module, func_name)
    cache = ExperimentCache()
    if module_name == "nnlm_suite":
        result = func(TextExperimentConfig(), cache)
    elif module_name == "serving_suite":
        result = func(ImageExperimentConfig(), ServingExperimentConfig(),
                      cache)
    else:
        result = func(ImageExperimentConfig(), cache)
    print(json.dumps(result, indent=1))
    return 0


def _cmd_serve_demo(args) -> int:
    import numpy as np

    from .serving import (
        FixedRateController,
        SliceRateController,
        diurnal_rate,
        generate_arrivals,
        simulate_serving,
    )

    rates = [0.25, 0.5, 0.75, 1.0]
    accuracy = {0.25: 0.62, 0.5: 0.85, 0.75: 0.91, 1.0: 0.94}
    intensity = diurnal_rate(args.base_rate, args.peak_ratio, 60.0)
    arrivals = generate_arrivals(intensity, args.duration,
                                 np.random.default_rng(args.seed))
    print(f"{len(arrivals)} queries over {args.duration}s, "
          f"{args.peak_ratio}x volatility\n")
    controllers = {
        "model slicing": SliceRateController(rates, 0.002, 0.1),
        "fixed full": FixedRateController(1.0, 0.002, 0.1),
        "fixed small": FixedRateController(0.25, 0.002, 0.1),
    }
    for name, controller in controllers.items():
        report = simulate_serving(arrivals, controller, 0.002, 0.1,
                                  accuracy, args.duration)
        print(f"{name:<14} dropped={report.drop_fraction:.2%} "
              f"slo_miss={report.slo_violations} "
              f"accuracy={report.mean_accuracy:.3f} "
              f"mean_rate={report.mean_rate:.3f}")
    return 0


def _demo_model(name: str, seed: int):
    """The seeded eval-mode demo model behind ``--model name``.

    Returns ``(model, row_shape)``: ``row_shape`` is one input row's
    shape, or None for time-major token ids over a 64-word vocabulary.
    ``sequential`` is a plain MLP after Algorithm 1's ``upgrade_model``.
    """
    import numpy as np

    from .models import (MLP, NNLM, SlicedResNet, SlicedVGG,
                         TransformerEncoder, TransformerLM)
    from .nn import Linear, ReLU, Sequential
    from .slicing import upgrade_model

    rng = np.random.default_rng(seed)
    image = (3, 8, 8)
    table = {
        "mlp": (lambda: MLP(32, [64, 64], 8, seed=seed), (32,)),
        "sequential": (lambda: upgrade_model(Sequential(
            Linear(32, 64, rng=rng), ReLU(), Linear(64, 64, rng=rng),
            ReLU(), Linear(64, 8, rng=rng))), (32,)),
        "cnn": (lambda: SlicedVGG.cifar_mini(width=16, seed=seed), image),
        "resnet": (lambda: SlicedResNet.cifar_mini(seed=seed), image),
        "tenc": (lambda: TransformerEncoder(
            image_size=8, patch_size=4, channels=3, num_classes=8,
            embed_dim=32, num_heads=4, ffn_dim=64, depth=2, seed=seed),
            image),
        "tlm": (lambda: TransformerLM(64, embed_dim=32, num_heads=4,
                                      ffn_dim=64, depth=2, max_seq=16,
                                      seed=seed), None),
        "nnlm": (lambda: NNLM(64, embed_dim=32, hidden_size=32, seed=seed),
                 None),
    }
    build, row_shape = table[name]
    return build().eval(), row_shape


def _runtime_demo_model(args, rates):
    """The model + eval split the runtime demos serve.

    ``--model mlp`` trains the planted demo MLP; ``--model tenc`` builds
    the seeded sliced-attention transformer encoder and labels a random
    eval batch with the *full-width* model's own predictions, so the
    per-rate accuracy table measures fidelity to the full model (1.0 at
    rate 1.0 by construction) without any training.
    """
    import numpy as np

    from .slicing.resume import ResumablePlan

    if args.model == "tenc":
        model, row_shape = _demo_model("tenc", args.seed)
        rng = np.random.default_rng(args.seed)
        eval_x = rng.normal(size=(512,) + row_shape).astype(np.float32)
        eval_y = np.argmax(ResumablePlan(model, 1.0).run(eval_x), axis=-1)
        print(f"building the seeded sliced-attention encoder (seed "
              f"{args.seed}); accuracy = agreement with full width",
              file=sys.stderr)
        data = {"eval_x": eval_x, "eval_y": eval_y}
    else:
        from .diagnose.demo import train_demo_model

        print(f"training the demo MLP for {args.cascade_epochs} epochs "
              f"(seed {args.seed}) ...", file=sys.stderr)
        model, data = train_demo_model(seed=args.seed,
                                       epochs=args.cascade_epochs)
    inputs = data["eval_x"].astype(np.float32)
    labels = data["eval_y"]
    accuracy = {}
    for rate in rates:
        logits = ResumablePlan(model, rate).run(inputs)
        accuracy[rate] = float(
            np.mean(np.argmax(logits, axis=-1) == labels))
    return model, inputs, labels, accuracy


def _cmd_runtime(args) -> int:
    """``repro runtime``: elastic slicing vs fixed profiles (Sec. 4.1).

    Serves one volatile arrival trace (with one injected replica crash
    unless ``--no-faults``) three ways and prints one result table.  The
    elastic policy is the paper's slice-rate controller, or with
    ``--cascade`` a confidence cascade that starts every request at the
    cheapest stage and escalates low-margin rows; the two others are the
    fixed widest and narrowest profiles.

    ``--workers N`` serves through ``N`` real worker processes over a
    shared-memory weight arena (real predictions in the workers,
    simulated clock in the parent; with ``--trace`` each worker writes
    its own JSONL next to the parent's).  Otherwise ``--replicas`` simulated
    replicas serve in-process; they run the model only under
    ``--cascade``.  Every mode is deterministic under one seed, and
    ``--trace`` uses the TickClock so the JSONL is byte-identical across
    runs.
    """
    import numpy as np

    from . import obs
    from .diagnose.demo import DEMO_RATES
    from .runtime import (
        CascadeExecutor,
        CascadeStage,
        FaultPlan,
        InferenceRuntime,
        LatencyProfile,
        ProcessReplicaPool,
        Replica,
        ReplicaPool,
        RuntimeConfig,
        format_seconds,
    )
    from .serving import (
        CascadeController,
        FixedRateController,
        SliceRateController,
        diurnal_rate,
        generate_arrivals,
        spike_rate,
    )

    if args.replicas < 1:
        print("--replicas must be >= 1", file=sys.stderr)
        return 2
    if args.workers < 0:
        print("--workers must be >= 0", file=sys.stderr)
        return 2
    rates = list(DEMO_RATES) if args.cascade else [0.25, 0.5, 0.75, 1.0]
    thresholds = args.cascade_thresholds or [1.0] * (len(rates) - 1)
    if args.cascade and len(thresholds) != len(rates) - 1:
        print(f"--cascade-thresholds needs {len(rates) - 1} values "
              f"(stages {rates[:-1]})", file=sys.stderr)
        return 2
    full_latency, slo = 0.002, 0.1

    # The model and its measured per-rate accuracy on the eval split,
    # which doubles as the runtime's expected-accuracy table.  Plain
    # in-process replicas are simulated and hold no model.
    model = inputs = labels = None
    if args.cascade or args.workers:
        model, inputs, labels, accuracy = _runtime_demo_model(args, rates)
    elif args.model == "tenc":
        # Replicas are simulated here, but the expected-accuracy table
        # is measured on the real encoder (fidelity to full width).
        accuracy = _runtime_demo_model(args, rates)[3]
    else:
        accuracy = {0.25: 0.62, 0.5: 0.85, 0.75: 0.91, 1.0: 0.94}
    intensity = spike_rate(
        diurnal_rate(args.base_rate, args.peak_ratio, 60.0),
        [(args.duration * 0.25, args.duration * 0.1, 2.0)])
    arrivals = generate_arrivals(intensity, args.duration,
                                 np.random.default_rng(args.seed))
    prefix, hosts = ("w", args.workers) if args.workers \
        else ("r", args.replicas)
    crash_id = f"{prefix}{min(1, hosts - 1)}"  # must exist in the pool
    plan = FaultPlan() if args.no_faults else FaultPlan.single_crash(
        crash_id, args.crash_time if args.crash_time is not None
        else args.duration * 0.3)

    # name -> (controller, cascade executor or None, accuracy table).
    # What the modes print differently is data: the intro, the table's
    # columns, the per-worker request block and the epilogue.
    fixed = {
        "fixed full": (FixedRateController(rates[-1], full_latency, slo),
                       None, accuracy),
        "fixed small": (FixedRateController(rates[0], full_latency, slo),
                        None, accuracy),
    }
    served = (f"{args.workers} worker processes" if args.workers
              else f"{args.replicas} replicas")
    if args.cascade:
        stages = [CascadeStage(rate, threshold) for rate, threshold
                  in zip(rates[:-1], thresholds)]
        stages.append(CascadeStage(rates[-1]))
        # The MLP demo resumes its escalations exactly (Sec. 3.5), so
        # the madds-priced simulated clock shows the reuse.  Transformer
        # plans do not support row subsetting (attention couples the
        # batch axis), so their escalated rows recompute on cached
        # compiled plans.
        executor = CascadeExecutor(model, stages,
                                   incremental=args.model != "tenc")
        cost = {rate: full_latency * rate * rate for rate in rates}
        # High-margin exits at a cheap stage are far more accurate than
        # the stage's marginal accuracy: calibrate the cascade's
        # per-stage exit accuracy on the eval split (the table its
        # runtime reports against).
        policies = {"cascade": (CascadeController(rates, cost, slo),
                                executor, executor.calibrate(inputs, labels)),
                    **fixed}
        intro = (f"{served}, stages {[s.label() for s in stages]}, "
                 f"thresholds {thresholds}")
        columns = ["dropped", "goodput", "p99", "good*acc", "measured",
                   "escalated"]
        name_width, telemetry = 12, "cascade"
    else:
        policies = {"model slicing": (
            SliceRateController(rates, full_latency, slo), None, accuracy),
            **fixed}
        arena = " over one shared-memory arena" if args.workers else ""
        intro = (f"{served}{arena}, "
                 f"faults={'none' if args.no_faults else 'one crash'}")
        columns = ["dropped", "goodput", "p50", "p99",
                   "measured" if args.workers else "retries", "good*acc"]
        name_width, telemetry = 14, "elastic"
    print(f"{len(arrivals)} queries over {args.duration}s, {intro}\n")
    if args.trace:
        # TickClock: the trace stays byte-identical across runs (the
        # engine stamps simulated time; everything else counts ticks).
        obs.configure(trace_path=args.trace, clock=obs.TickClock())

    # column -> (width, format spec, value of a report); None prints "-"
    table_columns = {
        "dropped": (8, ".2%", lambda report: report.drop_fraction),
        "goodput": (9, ".1f", lambda report: report.goodput),
        "p50": (8, "", lambda report: format_seconds(
            report.latency_percentiles()["p50"])),
        "p99": (8, "", lambda report: format_seconds(
            report.latency_percentiles()["p99"])),
        "retries": (8, "", lambda report: report.retries),
        "measured": (9, ".3f", lambda report: report.measured_accuracy),
        "good*acc": (9, ".3f",
                     lambda report: report.goodput_weighted_accuracy),
        "escalated": (10, ".2%",
                      lambda report: report.escalation_fraction),
    }
    print(f"{'policy':<{name_width}}" + "".join(
        f" {column:>{table_columns[column][0]}}" for column in columns))
    config = RuntimeConfig(latency_slo=slo, max_batch_size=400,
                           batch_timeout=args.batch_timeout,
                           dispatch=args.dispatch, seed=args.seed)
    reports = {}
    worker_requests: dict[str, dict] = {}
    for name, (controller, cascade, table) in policies.items():
        if args.workers:
            slug = name.replace(" ", "-")
            traces = [f"{args.trace}.{slug}.w{i}.jsonl"
                      for i in range(args.workers)] if args.trace else None
            pool = ProcessReplicaPool(
                model, args.workers, LatencyProfile(full_latency),
                dispatch=args.dispatch, seed=args.seed, trace_paths=traces)
        else:
            pool = ReplicaPool(
                [Replica(f"r{i}", LatencyProfile(full_latency), model=model)
                 for i in range(args.replicas)],
                dispatch=args.dispatch, seed=args.seed)
        try:
            if cascade is not None:
                pool.warm_cascade(cascade)
            elif args.workers:
                pool.warm_plans(rates)
            runtime = InferenceRuntime(pool, controller, config, table,
                                       fault_plan=plan, inputs=inputs,
                                       labels=labels, cascade=cascade)
            with obs.span("runtime.policy", policy=name):
                reports[name] = report = runtime.run(arrivals,
                                                     args.duration)
            if args.workers:
                worker_requests[name] = {
                    stats["worker"]: stats["requests"]
                    for stats in pool.worker_stats()}
        finally:
            pool.shutdown()
        cells = []
        for column in columns:
            width, spec, value_of = table_columns[column]
            value = value_of(report)
            cells.append("-" if value is None
                         else format(value, f">{width}{spec}"))
        print(f"{name:<{name_width}} " + " ".join(cells))
    if worker_requests:
        print("\nrequests served per worker process:")
        for name, counts in worker_requests.items():
            shares = " ".join(f"{worker}={count}"
                              for worker, count in sorted(counts.items()))
            print(f"  {name:<14} {shares}")
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(reports[next(iter(policies))].to_json())
        print(f"\n{telemetry} policy telemetry written to {args.json}")
    if args.trace:
        obs.shutdown()
        if args.workers:
            print(f"observability traces written to {args.trace}* "
                  f"(merge with: repro obs summarize '{args.trace}*')")
        else:
            print(f"observability trace written to {args.trace} "
                  f"(inspect with: repro obs summarize {args.trace})")
    return 0


def _cmd_obs(args) -> int:
    import glob as globlib

    from .errors import DataError
    from .obs.summary import summarize

    paths: list[str] = []
    for pattern in args.trace:
        matched = sorted(globlib.glob(pattern))
        paths.extend(matched if matched else [pattern])
    try:
        print(summarize(paths, top=args.top))
    except (OSError, DataError) as exc:
        print(f"cannot summarize {', '.join(paths)}: {exc}",
              file=sys.stderr)
        return 2
    return 0


def _cmd_diagnose(args) -> int:
    from . import obs
    from .diagnose import diagnose, train_demo_model

    rates = sorted(set(args.rates)) if args.rates else [0.25, 0.5, 1.0]
    if args.trace:
        # TickClock: byte-identical JSONL across runs under one seed.
        obs.configure(trace_path=args.trace, clock=obs.TickClock())
    print(f"training a sliced demo MLP for {args.epochs} epochs "
          f"(seed {args.seed}) ...", file=sys.stderr)
    model, data = train_demo_model(seed=args.seed, epochs=args.epochs,
                                   rates=rates)
    report = diagnose(model, data["eval_x"], data["eval_y"], rates,
                      k=args.slices, seed=args.seed)
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(report.to_json() + "\n")
        print(f"diagnosis report written to {args.json}", file=sys.stderr)
    print(report.render())
    if args.trace:
        obs.shutdown()
        print(f"per-example eval trace written to {args.trace} "
              f"(inspect with: repro obs summarize {args.trace})",
              file=sys.stderr)
    return 0


def _cmd_plan(args) -> int:
    import time

    import numpy as np

    from .metrics.latency import measure_latency
    from .slicing import PlanCache

    rng = np.random.default_rng(args.seed)
    model, row_shape = _demo_model(args.model, args.seed)
    if row_shape is None:
        inputs = rng.integers(0, 64, size=(12, args.batch))
    else:
        inputs = rng.normal(size=(args.batch,) + row_shape).astype(
            np.float32)

    rates = sorted(set(args.rates)) if args.rates else [i / 8 for i in
                                                        range(1, 9)]
    cache = PlanCache()
    print(f"compiled inference plans — {args.model}, batch {args.batch}, "
          f"{args.repeats} timing repeats")
    header = (f"{'rate':>6} {'steps':>6} {'plan KiB':>9} {'compile ms':>11} "
              f"{'plan ms':>9} {'sliced ms':>10} {'speedup':>8}")
    print(header)
    print("-" * len(header))
    for rate in rates:
        start = time.perf_counter()
        plan = cache.get(model, rate)
        compile_ms = (time.perf_counter() - start) * 1e3
        plan_s = measure_latency(model, inputs, rate, repeats=args.repeats,
                                 warmup=1, use_plan=True, plan_cache=cache)
        sliced_s = measure_latency(model, inputs, rate, repeats=args.repeats,
                                   warmup=1)
        print(f"{rate:>6.3f} {len(plan.steps):>6d} "
              f"{plan.param_bytes() / 1024:>9.1f} {compile_ms:>11.2f} "
              f"{plan_s * 1e3:>9.3f} {sliced_s * 1e3:>10.3f} "
              f"{sliced_s / plan_s:>7.2f}x")
    stats = cache.stats()
    print(f"\ncache: size={stats['size']} hits={stats['hits']} "
          f"misses={stats['misses']} invalidations={stats['invalidations']} "
          f"evictions={stats['evictions']}")
    return 0


def _cmd_sizing(args) -> int:
    import numpy as np

    from .cluster import (
        AutoscalerConfig,
        CapacityReport,
        CostTable,
        GiB,
        NodeSpec,
        SimulationConfig,
        SizingRequest,
        parse_forecast,
        plan_capacity,
        simulate_autoscaling,
    )
    from .errors import ServingError
    from .runtime.replica import LatencyProfile

    # The demo accuracy/rate trade-off (anchored at the Sec 4.1 demo
    # table); arbitrary --rates interpolate along it.
    anchors = ([0.0, 0.25, 0.5, 0.75, 1.0],
               [0.30, 0.62, 0.85, 0.91, 0.94])

    input_builder = None
    model, row_shape = _demo_model(args.model, args.seed)
    if row_shape is None:
        # Decoder inputs are time-major token ids: one 16-step session
        # column per "sample".
        input_shape = (16, 1)
        rng = np.random.default_rng(args.seed)
        input_builder = lambda shape: rng.integers(  # noqa: E731
            0, 64, size=shape)
    else:
        input_shape = (1,) + row_shape
    rates = sorted(set(args.rates)) if args.rates else [0.25, 0.5, 0.75, 1.0]
    accuracy = {r: float(np.interp(r, *anchors)) for r in rates}

    try:
        spec = parse_forecast(args.forecast)
        table = CostTable.from_model(
            model, input_shape, accuracy,
            LatencyProfile(args.full_latency),
            input_builder=input_builder)
        node_spec = NodeSpec(memory_bytes=args.node_memory_gb * GiB,
                             flops_per_sec=args.node_flops,
                             max_replicas=args.max_replicas,
                             sessions_per_replica=args.sessions_per_user)
        request = SizingRequest(
            spec=spec, window_seconds=args.window,
            latency_slo=args.slo_p95 / 1e3,
            accuracy_floor=args.accuracy_floor,
            headroom=args.headroom, ha_spares=args.ha_spares)
        plan = plan_capacity(request, table, node_spec)

        simulations = []
        if not args.no_simulate:
            sim_config = SimulationConfig(
                window_seconds=args.window,
                latency_slo=request.latency_slo, seed=args.seed)
            scaler_config = AutoscalerConfig(boot_windows=args.boot_windows)
            simulations.append(simulate_autoscaling(
                spec, table, node_spec, sim_config, scaler_config,
                plan.replicas_per_node, schedule=plan.schedule,
                label="elastic"))
            best = plan.best_fixed
            if best is not None:
                fixed_table = CostTable([best.cost])
                simulations.append(simulate_autoscaling(
                    spec, fixed_table, node_spec, sim_config,
                    scaler_config, best.replicas_per_node,
                    schedule=best.schedule,
                    label=f"fixed-{best.cost.label()}"))
                simulations.append(simulate_autoscaling(
                    spec, fixed_table, node_spec, sim_config,
                    scaler_config, best.replicas_per_node, static=True,
                    initial_nodes=best.nodes_static,
                    label=f"fixed-{best.cost.label()}-static"))
    except ServingError as exc:
        print(f"sizing failed: {exc}", file=sys.stderr)
        return 2

    report = CapacityReport(plan, simulations)
    print(report.render())
    if any(cost.kv_bytes_per_session > 0 for cost in table):
        # Decoder sessions hold KV caches resident between requests, so
        # node memory — not FLOPs — can bound how many users a node
        # keeps live.  (weights + batch activations already deducted.)
        print(f"\nKV-cache session capacity per node "
              f"({args.sessions_per_user} resident sessions budgeted "
              f"per replica):")
        print(f"{'profile':>8} {'kv bytes/session':>17} "
              f"{'max resident sessions':>22}")
        for cost in table:
            capacity = node_spec.max_sessions(cost)
            text = "unbounded" if capacity == float("inf") \
                else f"{int(capacity)}"
            print(f"{cost.label():>8} {cost.kv_bytes_per_session:>17.0f} "
                  f"{text:>22}")
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(report.to_json())
        print(f"\ncapacity report written to {args.json}")
    return 0


def _cmd_profile(args) -> int:
    import json

    from .errors import BudgetError
    from .metrics.flops import measured_flops, memory_of_profile
    from .slicing.budget import (
        search_profile_for_budget,
        uniform_rate_for_budget,
    )

    model, row_shape = _demo_model(args.model, args.seed)
    input_shape = (args.batch,) + row_shape

    rates = sorted(set(args.rates)) if args.rates \
        else [i / 8 for i in range(1, 9)]
    full_cost = measured_flops(model, input_shape, rate=1.0)
    budget = args.budget if args.budget is not None \
        else args.budget_fraction * full_cost
    try:
        searched = search_profile_for_budget(model, input_shape, budget,
                                             rates)
        uniform = uniform_rate_for_budget(model, input_shape, budget, rates)
    except BudgetError as exc:
        print(f"profile search failed: {exc}", file=sys.stderr)
        return 2

    searched_mem = memory_of_profile(model, input_shape,
                                     rate=searched.profile)
    uniform_mem = memory_of_profile(model, input_shape,
                                    rate=uniform.profile)
    if args.json:
        print(json.dumps({
            "model": args.model,
            "full_cost": full_cost,
            "budget": budget,
            "searched": searched.to_dict(),
            "searched_memory": searched_mem,
            "uniform": uniform.to_dict(),
            "uniform_memory": uniform_mem,
        }, indent=1, sort_keys=True))
        return 0
    print(f"profile search — {args.model}, budget {budget:.4g} FLOPs "
          f"({budget / full_cost:.1%} of full-width {full_cost:.4g})")
    print(f"searched profile ({searched.profile.fingerprint()}):")
    for name, rate in searched.profile.items():
        print(f"  {name:<20} {rate:g}")
    print(f"  cost {searched.cost:.4g} ({searched.cost / full_cost:.1%} "
          f"of full) after {searched.evals} cost evaluations")
    print(f"  memory: {searched_mem['param_bytes']:.0f}B params + "
          f"{searched_mem['peak_activation_bytes']:.0f}B peak activations "
          f"(batch {searched_mem['batch']})")
    print(f"best uniform rate {float(uniform.profile):g}: "
          f"cost {uniform.cost:.4g} ({uniform.cost / full_cost:.1%} of full)")
    print(f"  memory: {uniform_mem['param_bytes']:.0f}B params + "
          f"{uniform_mem['peak_activation_bytes']:.0f}B peak activations "
          f"(batch {uniform_mem['batch']})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Model Slicing reproduction (Cai et al., PVLDB 2019)",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="print version and experiment protocols")

    demo = sub.add_parser("demo", help="train a small sliced model")
    demo.add_argument("--epochs", type=int, default=20)
    demo.add_argument("--seed", type=int, default=0)

    rep = sub.add_parser("reproduce",
                         help="compute a paper artifact (JSON output)")
    rep.add_argument("artifact", choices=sorted(ARTIFACTS))

    serve = sub.add_parser("serve-demo",
                           help="run the Sec 4.1 serving simulation")
    serve.add_argument("--base-rate", type=float, default=100.0)
    serve.add_argument("--peak-ratio", type=float, default=16.0)
    serve.add_argument("--duration", type=float, default=120.0)
    serve.add_argument("--seed", type=int, default=0)

    runtime = sub.add_parser(
        "runtime",
        help="run the continuous-time multi-replica serving runtime")
    runtime.add_argument("--replicas", type=int, default=3)
    runtime.add_argument("--base-rate", type=float, default=100.0)
    runtime.add_argument("--peak-ratio", type=float, default=16.0)
    runtime.add_argument("--duration", type=float, default=60.0)
    runtime.add_argument("--batch-timeout", type=float, default=0.01)
    runtime.add_argument("--dispatch", default="least-loaded",
                         choices=["least-loaded", "power-of-two"])
    runtime.add_argument("--crash-time", type=float, default=None,
                         help="when the injected crash fires "
                              "(default: 30%% into the run)")
    runtime.add_argument("--no-faults", action="store_true")
    runtime.add_argument("--cascade", action="store_true",
                         help="serve a trained demo model through a "
                              "confidence cascade (margin-gated "
                              "escalation) and compare "
                              "against fixed profiles")
    runtime.add_argument("--cascade-thresholds", type=float, nargs="*",
                         default=None, metavar="MARGIN",
                         help="per-stage escalation margins (one per "
                              "non-terminal stage; default 1.0 each)")
    runtime.add_argument("--workers", type=int, default=0, metavar="N",
                         help="serve through N real worker processes over "
                              "a shared-memory weight arena (0 = classic "
                              "in-process replicas); composes with "
                              "--cascade")
    runtime.add_argument("--cascade-epochs", type=int, default=4,
                         help="demo-model training epochs in cascade mode")
    runtime.add_argument("--model", default="mlp",
                         choices=["mlp", "tenc"],
                         help="model the demos serve: the trained demo "
                              "MLP, or the seeded sliced-attention "
                              "transformer encoder scored by agreement "
                              "with its own full width (the decoder LM "
                              "is session-based — see repro plan/sizing "
                              "--model tlm)")
    runtime.add_argument("--seed", type=int, default=0)
    runtime.add_argument("--json", default=None, metavar="PATH",
                         help="write the elastic policy's telemetry "
                              "report as JSON")
    runtime.add_argument("--trace", default=None, metavar="PATH",
                         help="record a deterministic JSONL observability "
                              "trace (spans, events, metrics snapshot)")

    plan = sub.add_parser(
        "plan",
        help="compile per-rate inference plans and compare against the "
             "uncompiled sliced forward")
    plan.add_argument("--model", default="cnn",
                      choices=["mlp", "cnn", "resnet", "nnlm", "tenc",
                               "tlm", "sequential"],
                      help="resnet is the pre-activation bottleneck "
                           "ResNet; tenc/tlm are the sliced-attention "
                           "transformer encoder and decoder LM (head+FFN "
                           "slicing); sequential is an upgraded plain MLP")
    plan.add_argument("--batch", type=int, default=8)
    plan.add_argument("--repeats", type=int, default=15)
    plan.add_argument("--rates", type=float, nargs="*", default=None,
                      help="slice rates to compile (default: the G=8 grid)")
    plan.add_argument("--seed", type=int, default=0)

    prof = sub.add_parser("profile", help="per-layer slice-profile tools")
    prof_sub = prof.add_subparsers(dest="profile_command", required=True)
    search = prof_sub.add_parser(
        "search",
        help="greedy per-layer profile search under a FLOPs budget, "
             "compared against the best uniform rate")
    search.add_argument("--model", default="mlp", choices=["mlp", "cnn"])
    search.add_argument("--budget-fraction", type=float, default=0.5,
                        help="budget as a fraction of full-width FLOPs")
    search.add_argument("--budget", type=float, default=None,
                        help="absolute FLOPs budget "
                             "(overrides --budget-fraction)")
    search.add_argument("--rates", type=float, nargs="*", default=None,
                        help="candidate per-layer rates "
                             "(default: the G=8 grid)")
    search.add_argument("--batch", type=int, default=4)
    search.add_argument("--seed", type=int, default=0)
    search.add_argument("--json", action="store_true",
                        help="emit the search result as JSON")

    sizing = sub.add_parser(
        "sizing",
        help="analytic cluster capacity plan plus autoscaling simulation")
    sizing.add_argument("--forecast", default="diurnal:base=20000,peak=8",
                        help="traffic forecast spec, name:key=value,... "
                             "(diurnal, flash, ramp, regional)")
    sizing.add_argument("--slo-p95", type=float, default=100.0,
                        help="end-to-end latency SLO in milliseconds")
    sizing.add_argument("--window", type=float, default=300.0,
                        help="planning/simulation window in seconds")
    sizing.add_argument("--accuracy-floor", type=float, default=0.9,
                        help="minimum demand-weighted mean accuracy")
    sizing.add_argument("--headroom", type=float, default=0.15,
                        help="capacity margin over the forecast")
    sizing.add_argument("--ha-spares", type=int, default=1,
                        help="always-on spare nodes")
    sizing.add_argument("--node-memory-gb", type=float, default=16.0)
    sizing.add_argument("--node-flops", type=float, default=5e9,
                        help="per-node FLOPs/second budget")
    sizing.add_argument("--max-replicas", type=int, default=8,
                        help="replica slots per node")
    sizing.add_argument("--full-latency", type=float, default=0.002,
                        help="calibrated full-width per-sample seconds")
    sizing.add_argument("--boot-windows", type=int, default=2,
                        help="windows a provisioned node takes to boot")
    sizing.add_argument("--model", default="mlp",
                        choices=["mlp", "cnn", "tenc", "tlm"],
                        help="tlm (decoder LM) adds per-session KV-cache "
                             "bytes to the plan's memory budget")
    sizing.add_argument("--sessions-per-user", type=int, default=0,
                        help="resident decoder sessions budgeted per "
                             "replica slot (each holds a KV cache at "
                             "the replica's profile); trades slice rate "
                             "against KV residency on node memory")
    sizing.add_argument("--rates", type=float, nargs="*", default=None,
                        help="slice rates in the profile table "
                             "(default: 0.25 0.5 0.75 1.0)")
    sizing.add_argument("--seed", type=int, default=0)
    sizing.add_argument("--json", default=None, metavar="PATH",
                        help="write the full capacity report as JSON")
    sizing.add_argument("--no-simulate", action="store_true",
                        help="skip the autoscaling simulation")

    obs_parser = sub.add_parser("obs", help="observability utilities")
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)
    summ = obs_sub.add_parser(
        "summarize", help="summarize a JSONL trace written by repro.obs")
    summ.add_argument("trace", nargs="+",
                      help="JSONL trace files or globs; multiple traces "
                           "merge into one summary")
    summ.add_argument("--top", type=int, default=15,
                      help="rows to show in the span/event tables")

    diag = sub.add_parser(
        "diagnose",
        help="train a demo sliced model and report slice-quality "
             "diagnostics: error slices, degradation curves, layer "
             "attribution, scheduling weights")
    diag.add_argument("--epochs", type=int, default=6)
    diag.add_argument("--seed", type=int, default=0)
    diag.add_argument("--rates", type=float, nargs="*", default=None,
                      help="profiles to diagnose (default: 0.25 0.5 1.0)")
    diag.add_argument("--slices", type=int, default=4,
                      help="max error slices to discover")
    diag.add_argument("--json", default=None, metavar="PATH",
                      help="write the canonical sorted-key JSON report")
    diag.add_argument("--trace", default=None, metavar="PATH",
                      help="record the per-example JSONL eval trace "
                           "(deterministic under --seed)")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "info": _cmd_info,
        "demo": _cmd_demo,
        "reproduce": _cmd_reproduce,
        "serve-demo": _cmd_serve_demo,
        "runtime": _cmd_runtime,
        "plan": _cmd_plan,
        "profile": _cmd_profile,
        "sizing": _cmd_sizing,
        "obs": _cmd_obs,
        "diagnose": _cmd_diagnose,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
