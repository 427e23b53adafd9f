"""Command-line surface: gen, dims, tree, sample, learn, sweep, audit.

Exit codes: 0 on success, 2 on validation errors (bad arguments or
malformed inputs), 1 on unexpected runtime errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from . import io
from .audit_scenarios import (
    choosing_scenario,
    exponential_mechanism_scenario,
    improper_learner_scenario,
    laplace_scenario,
    median_scenario,
    randomized_response_scenario,
)
from .experiments import config_from_json, run_experiment, write_report_csv
from .generators import GENERATOR_KINDS, GeneratorSpec, generate_class, sample_dataset
from .learners import LearnParams, improper_learn, prepare_context, proper_learn
from .mechanisms import PrivacyParams
from .oracles import Distribution, dimension_report, dp_audit
from .rng import make_rng
from .tree import tree_to_dot, tree_to_json


def _cmd_gen(args: argparse.Namespace) -> int:
    spec = GeneratorSpec(
        kind=args.kind,
        n=args.n,
        max_children=args.max_children,
        concept_rate=args.concept_rate,
        seed=args.seed,
    )
    cls = generate_class(spec)
    io.save_class(cls, args.out)
    print(f"wrote {args.out}: {len(cls)} concepts over {cls.domain_size} points")
    return 0


def _cmd_dims(args: argparse.Namespace) -> int:
    cls = io.load_class(getattr(args, "class_path"))
    report = dimension_report(cls)
    print(json.dumps(dataclasses.asdict(report)))
    return 0


def _cmd_tree(args: argparse.Namespace) -> int:
    cls = io.load_class(getattr(args, "class_path"))
    ctx = prepare_context(cls, args.f_index)
    text = (
        tree_to_dot(ctx.tree, ctx.point_map)
        if args.format == "dot"
        else json.dumps(tree_to_json(ctx.tree, ctx.point_map), indent=2)
    )
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    cls = io.load_class(getattr(args, "class_path"))
    # a repeated id names its last concept
    index = {cid: i for i, cid in enumerate(cls.ids)}
    if args.concept not in index:
        raise ValueError(f"concept {args.concept!r} not in class")
    if args.weights:
        dist = Distribution([float(w) for w in args.weights.split(",")])
    else:
        dist = Distribution.uniform(cls.domain_size)
    concept = cls.concepts[index[args.concept]]
    data = sample_dataset(cls, concept, dist, args.n, make_rng(args.seed))
    io.save_dataset(data, args.out)
    print(f"wrote {args.out}: {len(data)} examples")
    return 0


def _cmd_learn(args: argparse.Namespace) -> int:
    cls = io.load_class(getattr(args, "class_path"))
    data = io.load_dataset(args.data)
    params = LearnParams(
        alpha=args.alpha,
        beta=args.beta,
        privacy=PrivacyParams(args.epsilon, args.delta),
    )
    rng = make_rng(args.seed)
    learn = improper_learn if args.mode == "improper" else proper_learn
    result = learn(cls, data, params, rng).to_json()
    if args.emit_trace:
        Path(args.emit_trace).write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result["hypothesis"]))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = config_from_json(json.loads(Path(args.config).read_text()))
    rows = run_experiment(config)
    write_report_csv(rows, config, args.out, include_runtime=args.runtime)
    print(f"wrote {args.out}: {len(rows)} rows")
    return 0


_AUDIT_TARGETS = {
    "improper": lambda eps, delta: improper_learner_scenario(eps, delta),
    "median": lambda eps, delta: median_scenario(eps),
    "choosing": lambda eps, delta: choosing_scenario(eps, delta),
    "em": lambda eps, delta: exponential_mechanism_scenario(eps),
    "rr": lambda eps, delta: randomized_response_scenario(eps),
    "laplace": lambda eps, delta: laplace_scenario(eps),
}


def _cmd_audit(args: argparse.Namespace) -> int:
    if not (math.isfinite(args.epsilon) and math.isfinite(args.delta)):
        raise ValueError("epsilon and delta must be finite")
    mech, d_a, d_b, claimed = _AUDIT_TARGETS[args.target](args.epsilon, args.delta)
    estimate = dp_audit(
        mech, d_a, d_b, args.trials, claimed.delta, make_rng(args.seed)
    )
    result = {
        "target": args.target,
        "claimed_epsilon": claimed.epsilon,
        "claimed_delta": claimed.delta,
        "estimated_epsilon_lower_bound": estimate,
        "trials": args.trials,
        "refuted": estimate > claimed.epsilon,
    }
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vc1learn",
        description="Private PAC learning toolkit for VC-dimension-1 concept classes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a concept class")
    p.add_argument("--kind", required=True, choices=list(GENERATOR_KINDS))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--max-children", type=int, default=3)
    p.add_argument("--concept-rate", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("dims", help="print exact dimensions of a class")
    p.add_argument("--class", dest="class_path", required=True)
    p.set_defaults(func=_cmd_dims)

    p = sub.add_parser("tree", help="export the order tree")
    p.add_argument("--class", dest="class_path", required=True)
    p.add_argument("--format", choices=["dot", "json"], default="json")
    p.add_argument("--f-index", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_tree)

    p = sub.add_parser("sample", help="sample a labeled dataset")
    p.add_argument("--class", dest="class_path", required=True)
    p.add_argument("--concept", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--weights", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("learn", help="run a private learner")
    p.add_argument("--mode", choices=["improper", "proper"], default="improper")
    p.add_argument("--class", dest="class_path", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--emit-trace", default=None)
    p.set_defaults(func=_cmd_learn)

    p = sub.add_parser("sweep", help="run an experiment sweep from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--runtime", action="store_true",
                   help="include runtime_ms (breaks byte-stable output)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("audit", help="estimate a privacy-loss lower bound")
    p.add_argument("--target", required=True, choices=sorted(_AUDIT_TARGETS))
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=1e-5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_audit)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
