"""Command-line front end: simulate | verify | decode | compare | emit-netlist.

Exit codes: 0 success, 1 input/parse error, 2 solver failure,
3 verification failure.  Commands raise; ``main`` alone decides the code, so
a usage error and a file that cannot be read or written also exit 1.  Output
files are written atomically; the default output directory comes from
$TERNSIM_OUT (falling back to the working directory).
"""

from __future__ import annotations

import argparse
import io
import os
import sys
import tempfile
from pathlib import Path

from . import analysis
from .core import TernaryLevel, VoltageBands
from .digital import eval_levels
from .engine import (SolverConfig, SolverError, Stimulus, run_transient,
                     supply_voltage)
from .netlist import (builtin_network, elaborate, mutate_network, parse,
                      serialize)
from .netlist.cells import BUILTIN_NETWORKS

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SOLVER = 2
EXIT_VERIFY = 3


def _out_dir(args) -> Path:
    path = Path(args.out or os.environ.get("TERNSIM_OUT", "."))
    path.mkdir(parents=True, exist_ok=True)
    return path


def _atomic_write(path: Path, text: str) -> None:
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None:
            os.unlink(tmp)
        if not isinstance(exc, OSError):
            raise
        # Name the path asked for, not the temp file.
        raise OSError(exc.errno, exc.strerror, str(path)) from exc


def _parse_levels(text: str, names) -> dict:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != len(names):
        raise ValueError(f"expected {len(names)} input level(s) "
                         f"({','.join(names)}), got {len(parts)}")
    levels = {}
    for name, part in zip(names, parts):
        if part not in ("0", "1", "2"):
            raise ValueError(f"input level must be 0, 1 or 2, got {part!r}")
        levels[name] = TernaryLevel(int(part))
    return levels


def _load_circuit(args):
    if args.netlist:
        return parse(Path(args.netlist).read_text(encoding="utf-8"))
    return elaborate(builtin_network(args.builtin))


def cmd_simulate(args) -> int:
    circuit = _load_circuit(args)
    cfg = SolverConfig(dt=args.dt, t_stop=args.t_stop)
    formats = [f.strip() for f in args.formats.split(",")]
    unknown = [f for f in formats if f not in ("csv", "vcd")]
    if unknown:
        raise ValueError(f"unknown format {unknown[0]!r}")
    input_names = [p.name for p in circuit.signal_inputs()]
    if args.sweep_inputs:
        if not args.builtin:
            raise ValueError("--sweep-inputs requires --builtin")
        vectors = analysis.input_vectors(args.builtin)
    elif args.inputs:
        vectors = [_parse_levels(args.inputs, input_names)]
    elif input_names:
        vectors = [{n: TernaryLevel.L0 for n in input_names}]
    else:
        vectors = [None]  # netlist drives itself (PWL sources)
    supply = supply_voltage(circuit)
    if not supply > 0:
        raise ValueError(f"supply voltage (highest source value) must be "
                         f"positive, got {supply}")
    tags = ["_".join(f"{k}{int(v)}" for k, v in (vec or {}).items()) or "run"
            for vec in vectors]
    for name in (f"{circuit.name}_{tag}" for tag in tags):
        if Path(name).parent != Path("."):
            raise ValueError(f"circuit {circuit.name!r} would write {name}."
                             f"{formats[0]} outside the output directory")
    out_dir = _out_dir(args)
    bands = VoltageBands.default(supply)
    status = EXIT_OK
    for vec, tag in zip(vectors, tags):
        stim = Stimulus.hold(vec) if vec else None
        wave = run_transient(circuit, stim, cfg)
        for fmt in formats:
            path = out_dir / f"{circuit.name}_{tag}.{fmt}"
            buf = io.StringIO()
            if fmt == "csv":
                wave.to_csv(buf)
            else:
                wave.to_vcd(buf, bands)
            _atomic_write(path, buf.getvalue())
            print(f"wrote {path}")
        for port in circuit.output_ports():
            t = analysis.measure_settling(wave, port.name, bands, stim)
            if t is None:
                print(f"  {tag}: {port.name} NOT SETTLED by {cfg.t_stop:.2e} s")
                status = EXIT_SOLVER
            else:
                v_final = wave.port_voltage(port.name)[-1]
                print(f"  {tag}: {port.name} settled {t * 1e9:.2f} ns after "
                      f"last event at {v_final:.3f} V")
    return status


def cmd_verify(args) -> int:
    decoders = list(analysis.DECODERS) if args.decoder == "all" else [args.decoder]
    backends = list(analysis.BACKENDS) if args.backend == "both" else [args.backend]
    networks = {d: builtin_network(d) for d in decoders}
    if args.fault:
        networks = {d: mutate_network(net, args.fault)
                    for d, net in networks.items()}
    out_dir = _out_dir(args)
    ok = True
    solver_failed = False
    for decoder, network in networks.items():
        for backend in backends:
            report = analysis.verify(backend, decoder, network=network)
            print(report.summary())
            base = out_dir / f"verify_{decoder}_{backend}"
            _atomic_write(base.with_suffix(".txt"), report.to_text() + "\n")
            _atomic_write(base.with_suffix(".json"), report.to_json() + "\n")
            ok &= report.passed
            solver_failed |= any(v.error for v in report.vectors)
    if solver_failed:
        return EXIT_SOLVER
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_decode(args) -> int:
    levels = _parse_levels(f"{args.a},{args.b}", ["A", "B"])
    segments = analysis.segments_from_levels(
        eval_levels(builtin_network("display"), levels))
    glyph, digit = analysis.seven_segment_render(segments)
    print(glyph)
    print(f"digit: {digit if digit is not None else 'unrecognized'}")
    return EXIT_OK


def cmd_compare(args) -> int:
    out_dir = _out_dir(args)
    circuit = elaborate(builtin_network("display"))
    report = analysis.resource_report(circuit)
    text = report.to_json() if args.format == "json" else report.to_text()
    print(text)
    suffix = "json" if args.format == "json" else "txt"
    path = out_dir / f"resource_report.{suffix}"
    _atomic_write(path, text + "\n")
    print(f"\nwrote {path}", file=sys.stderr)
    return EXIT_OK


def cmd_emit_netlist(args) -> int:
    text = serialize(elaborate(builtin_network(args.builtin)))
    if args.out_file == "-":
        sys.stdout.write(text)
    else:
        path = Path(args.out_file)
        _atomic_write(path, text)
        print(f"wrote {path}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ternsim",
        description="Memristor-CMOS ternary decoder simulator and verifier")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="transient analog simulation")
    src = sim.add_mutually_exclusive_group(required=True)
    src.add_argument("--builtin", choices=sorted(BUILTIN_NETWORKS))
    src.add_argument("--netlist", help="netlist file path")
    vecs = sim.add_mutually_exclusive_group()
    vecs.add_argument("--inputs", help="comma-separated input levels, e.g. 2,1")
    vecs.add_argument("--sweep-inputs", action="store_true",
                      help="simulate every input vector")
    sim.add_argument("--t-stop", type=float, dest="t_stop",
                     default=SolverConfig.t_stop,
                     help="simulation length in seconds")
    sim.add_argument("--dt", type=float, default=SolverConfig.dt,
                     help="timestep in seconds")
    sim.add_argument("--formats", default="csv", help="csv,vcd")
    sim.add_argument("--out", help="output directory")
    sim.set_defaults(func=cmd_simulate)

    ver = sub.add_parser("verify", help="truth-table verification")
    ver.add_argument("--decoder", choices=[*analysis.DECODERS, "all"],
                     default="all")
    ver.add_argument("--backend", choices=[*analysis.BACKENDS, "both"],
                     default="both")
    ver.add_argument("--fault", help="inject a wiring fault, e.g. swap:Y7,Y5")
    ver.add_argument("--out", help="output directory")
    ver.set_defaults(func=cmd_verify)

    dec = sub.add_parser("decode", help="drive the display decoder once")
    dec.add_argument("a", metavar="A")
    dec.add_argument("b", metavar="B")
    dec.set_defaults(func=cmd_decode)

    cmp_ = sub.add_parser("compare",
                          help="resource/power report vs the BCD baseline")
    cmp_.add_argument("--format", choices=["text", "json"], default="text")
    cmp_.add_argument("--out", help="output directory")
    cmp_.set_defaults(func=cmd_compare)

    emit = sub.add_parser("emit-netlist", help="dump a builtin as netlist text")
    emit.add_argument("--builtin", choices=sorted(BUILTIN_NETWORKS),
                      required=True)
    emit.add_argument("--out-file", help="path or - for stdout", default="-")
    emit.set_defaults(func=cmd_emit_netlist)
    return parser


def main(argv=None) -> int:
    """Run one command; the only place that turns an outcome into a code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage or the help
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    try:
        return args.func(args)
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, OSError) as exc:  # every NetlistError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
