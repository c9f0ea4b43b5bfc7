"""The three benchmark workloads: train, serve and eval.

Each is a closed loop with one caller: the next unit of work starts only
after the previous one returned.  A workload builds its inputs from the
seed in ``setup``, does one fixed pass of work per ``run_pass`` call (every
pass repeats the same work, so per-pass counts are exact), and checks its
outputs in ``check``, outside the timed window.

The library is reached only through its public modules, and always through
the module attribute (``data.load_grayscale``, never a name imported from
it), so the traced run's wrappers see every call.  ``config``,
``checkpoint`` and ``cli`` are never imported.  Model, training and data
settings are the values of ``configs/desk.cfg``, built directly.
"""

from __future__ import annotations

import contextlib
import importlib.util
import math
import shutil
from pathlib import Path
from time import perf_counter

import numpy as np

from invfuse import data, flow, losses, metrics, training

ROUNDTRIP_GATE = 1e-5  # the repository's round-trip gate (README, tests)
DESK_LATENT = flow.LatentSpec(kind="normal", seed=0)
DESK_TRAIN = training.TrainConfig(
    epochs=1, batch_size=16, lr=0.0015, plateau_factor=0.95, plateau_patience=8,
    seed=0, loss_weights=losses.LossWeights(ssim_weight=0.8, fusion_weight=0.5),
    latent=DESK_LATENT)


# The train workload adds the model's soft clamp on the log-scales to the
# desk preset.  Without it, desk training raises NumericError ("block 2: exp
# overflowed") within the first epoch on some data seeds (1 and 10 of 0-11),
# and the benchmark needs a workload on which no operation fails.  The clamp
# bounds exp(s) by e**2, so it cannot overflow.
TRAIN_CLAMP_SCALE = 2.0


def desk_model(clamp_scale=0.0):
    return flow.FlowModel(flow.ModelConfig(
        k=3, hidden_channels=16, kernel_size=3, sigmoid_head=True,
        clamp_scale=clamp_scale, seed=0))


def random_model(seed):
    """A desk-shaped model with small random weights: it costs what a
    trained one costs, without a checkpoint."""
    model = desk_model()
    flow.randomize_parameters(model, seed, 0.1)
    return model


def stack(pairs):
    return (np.stack([p.x1 for p in pairs])[:, None],
            np.stack([p.x2 for p in pairs])[:, None])


def roundtrip_error(model, x1, x2, y, z):
    r1, r2 = flow.decompose_pair(model, y, z)
    return max(float(np.max(np.abs(r1 - x1))), float(np.max(np.abs(r2 - x2))))


class _TimedTrainer(training.Trainer):
    def __init__(self, clock, *args):
        super().__init__(*args)
        self.clock = clock

    def step(self, *args, **kwargs):
        with self.clock.unit():
            return super().step(*args, **kwargs)


class Workload:
    def close(self):
        pass


class Train(Workload):
    """One pass is one desk-preset training session from the initial
    weights (plus the log-scale clamp): ``Trainer.run`` for one epoch over
    200 pairs in batches of 16, then ``validate`` on 50.  The seed picks
    the data; model, shuffle and latent seeds stay at the preset's 0.
    Unit of work: a ``Trainer.step``."""

    name = "train"
    N_PAIRS = 250
    TRAIN_FRACTION = 0.8

    def setup(self, seed, out_dir):
        synth = data.SynthConfig(seed=seed, size=64)
        pairs = [data.synth_pair(synth, i) for i in range(self.N_PAIRS)]
        self.train_pairs, self.val_pairs = data.dataset_split(
            pairs, self.TRAIN_FRACTION, seed=seed)
        x1, x2 = stack(self.train_pairs[:DESK_TRAIN.batch_size])
        training.Trainer(desk_model(TRAIN_CLAMP_SCALE), DESK_TRAIN).step(x1, x2)  # warm-up
        self.results = []

    def run_pass(self, clock, pass_index):
        trainer = _TimedTrainer(clock, desk_model(TRAIN_CLAMP_SCALE), DESK_TRAIN)
        result = trainer.run(self.train_pairs, self.val_pairs)
        self.results.append(result)
        return len(self.train_pairs)

    def val_loss(self):
        return self.results[-1].epochs[-1].val.loss_total

    def check(self):
        problems = []
        for n, result in enumerate(self.results):
            losses_ = [v for b in result.steps for v in vars(b).values()]
            losses_ += list(vars(result.epochs[-1].val).values())
            if not all(math.isfinite(v) for v in losses_):
                problems.append(f"session {n}: a training or validation loss is not finite")
        model = self.results[-1].model
        x1, x2 = stack(self.val_pairs[:DESK_TRAIN.batch_size])
        y, z = flow.fuse_pair(model, x1, x2)
        err = roundtrip_error(model, x1, x2, y, z)
        if not err < ROUNDTRIP_GATE:
            problems.append(f"trained model: round-trip error {err:.3e} >= {ROUNDTRIP_GATE:g}")
        return problems


class Serve(Workload):
    """One pass is 64 requests, one at a time, in a seeded order of a fixed
    size mix.  A request reads two PGMs, fuses them, writes the fused
    image, decomposes it with a freshly sampled latent and writes both
    reconstructions.  Unit of work: a request."""

    name = "serve"
    MIX = ((64, 52), (128, 8), (256, 4))  # (side, requests per pass)

    def setup(self, seed, out_dir):
        self.dir = Path(out_dir) / "serve"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        sides = [side for side, n in self.MIX for _ in range(n)]
        np.random.default_rng(seed).shuffle(sides)
        self.requests = []
        for i, side in enumerate(sides):
            pair = data.synth_pair(data.SynthConfig(seed=seed, size=side), i)
            paths = [self.dir / f"{i:03d}-{part}.pgm" for part in ("x1", "x2", "y", "r1", "r2")]
            data.save_grayscale(pair.x1, paths[0])
            data.save_grayscale(pair.x2, paths[1])
            self.requests.append(paths)
        self.model = random_model(seed)
        for side, _ in self.MIX:  # warm-up, one request per size
            self._request(self.requests[sides.index(side)], draw_index=0)
        self.kept = []

    def _request(self, paths, draw_index):
        x1 = data.load_grayscale(paths[0])
        x2 = data.load_grayscale(paths[1])
        y, z = flow.fuse_pair(self.model, x1, x2)
        data.save_grayscale(np.clip(y, 0.0, 1.0), paths[2])
        z_new = flow.sample_latent(DESK_LATENT, (1, 1) + y.shape, draw_index)[0, 0]
        r1, r2 = flow.decompose_pair(self.model, y, z_new)
        data.save_grayscale(np.clip(r1, 0.0, 1.0), paths[3])
        data.save_grayscale(np.clip(r2, 0.0, 1.0), paths[4])
        return x1, x2, y, z

    def run_pass(self, clock, pass_index):
        n = len(self.requests)
        for i, paths in enumerate(self.requests):
            with clock.unit(f"{pass_index}.{i}"):
                out = self._request(paths, draw_index=pass_index * n + i)
            if pass_index == 0:
                self.kept.append(out)
        return n

    def val_loss(self):
        """Validation loss of the served model on the 64x64 requests."""
        pairs = [data.ImagePair(id=f"request-{i}", x1=x1, x2=x2)
                 for i, (x1, x2, _, _) in enumerate(self.kept) if x1.shape == (64, 64)]
        return training.validate(self.model, pairs, DESK_TRAIN).loss_total

    def check(self):
        problems = []
        for i, (x1, x2, y, z) in enumerate(self.kept):
            if not (np.all(np.isfinite(y)) and y.min() >= 0.0 and y.max() <= 1.0):
                problems.append(f"request {i}: fused image outside [0, 1]")
            err = roundtrip_error(self.model, x1, x2, y, z)
            if not err < ROUNDTRIP_GATE:
                problems.append(f"request {i}: round-trip error {err:.3e} >= {ROUNDTRIP_GATE:g}")
        return problems

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


class Eval(Workload):
    """One pass scores 50 pairs of 64x64, the size of the desk preset's
    held-out split, the way ``cli.model_reports`` does: one batched fuse of
    every pair, one decomposition with the per-image validation latents,
    then ``evaluate_pair`` pair by pair.  Unit of work: that scored batch."""

    name = "eval"
    N_PAIRS = 50

    def setup(self, seed, out_dir):
        synth = data.SynthConfig(seed=seed, size=64)
        self.pairs = [data.synth_pair(synth, i) for i in range(self.N_PAIRS)]
        self.model = random_model(seed)
        x1, x2 = stack(self.pairs)  # warm-up: the full batch, one report
        y, z = flow.fuse_pair(self.model, x1, x2)
        r1, r2 = flow.decompose_pair(self.model, y, z)
        metrics.evaluate_pair(x1[0, 0], x2[0, 0], y[0, 0], r1[0, 0], r2[0, 0])
        self.kept = None

    def _score(self, batch):
        x1, x2 = stack(batch)
        y, z = flow.fuse_pair(self.model, x1, x2)
        z_new = training.validation_latents(DESK_LATENT, [p.id for p in batch], z.shape[1:])
        r1, r2 = flow.decompose_pair(self.model, y, z_new)
        return y, [metrics.evaluate_pair(p.x1, p.x2, y[i, 0], r1[i, 0], r2[i, 0], pair_id=p.id)
                   for i, p in enumerate(batch)]

    def run_pass(self, clock, pass_index):
        with clock.unit(str(pass_index)):
            y, reports = self._score(self.pairs)
        if pass_index == 0:
            self.kept = (y, reports)
        return len(self.pairs)

    def val_loss(self):
        """Validation loss of the scored model on the held-out pairs."""
        return training.validate(self.model, self.pairs, DESK_TRAIN).loss_total

    def check(self):
        problems = [f"{r.pair_id}: report has a non-finite score" for r in self.kept[1]
                    if not all(math.isfinite(getattr(r, f))
                               for f in metrics.MetricReport.NUMERIC_FIELDS)]
        problems += self._oracle_check()
        return problems

    def _oracle_check(self):
        """Recompute the first pair's scores with the brute-force oracles of
        tests/oracles.py, at the tolerance the metric tests use."""
        path = Path(__file__).resolve().parent.parent / "tests" / "oracles.py"
        spec = importlib.util.spec_from_file_location("invfuse_test_oracles", path)
        oracles = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(oracles)
        y, reports = self.kept
        x1, x2, fused, r = self.pairs[0].x1, self.pairs[0].x2, y[0, 0], reports[0]
        pairs = (("q_ssim_x1", r.q_ssim_x1, oracles.ssim_loops(x1, fused)),
                 ("q_ssim_x2", r.q_ssim_x2, oracles.ssim_loops(x2, fused)),
                 ("q_fmi", r.q_fmi, oracles.fmi_loops(x1, x2, fused)),
                 ("q_ncie", r.q_ncie, oracles.ncie_roots(x1, x2, fused)),
                 ("q_xy", r.q_xy, oracles.qxy_loops(x1, x2, fused)),
                 ("q_p", r.q_p, oracles.qp_loops(x1, x2, fused)))
        return [f"{r.pair_id}: {name} {got!r} != oracle {want!r}"
                for name, got, want in pairs if not abs(got - want) <= 1e-10]


WORKLOADS = {w.name: w for w in (Train, Serve, Eval)}


class Clock:
    """Times units of work and counts those attempted and failed."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.latencies = []
        self.attempted = 0
        self.failed = 0

    @contextlib.contextmanager
    def unit(self, rid=None):
        if rid is not None and self.tracer is not None:
            self.tracer.rid = rid
        self.attempted += 1
        start = perf_counter()
        try:
            yield
        except BaseException:
            self.failed += 1
            raise
        self.latencies.append(perf_counter() - start)
