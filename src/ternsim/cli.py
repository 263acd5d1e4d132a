"""Command-line front end: simulate | verify | decode | compare | emit-netlist.

Exit codes: 0 success, 1 input/parse error, 2 solver failure,
3 verification failure.  Output files are written atomically; the default
output directory comes from $TERNSIM_OUT (falling back to the working
directory).
"""

from __future__ import annotations

import argparse
import io
import os
import sys
import tempfile
from pathlib import Path

from . import analysis
from .core import TernaryLevel, VoltageBands, decode_2bit, encode_2bit
from .digital import build_dag, eval_circuit
from .engine import (NotSettled, SingularSystem, SolverConfig, Stimulus,
                     TransientError, run_transient, supply_voltage)
from .netlist import (NetlistError, builtin_network, elaborate,
                      mutate_network, parse, serialize)
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
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


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
        text = Path(args.netlist).read_text()
        return parse(text)
    return elaborate(builtin_network(args.builtin))


def _solver_config(args) -> SolverConfig:
    kwargs = {}
    if getattr(args, "dt", None) is not None:
        kwargs["dt"] = args.dt
    if getattr(args, "t_stop", None) is not None:
        kwargs["t_stop"] = args.t_stop
    return SolverConfig(**kwargs)


def cmd_simulate(args) -> int:
    try:
        circuit = _load_circuit(args)
    except (NetlistError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        cfg = _solver_config(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    formats = [f.strip() for f in args.formats.split(",")]
    unknown = [f for f in formats if f not in ("csv", "vcd")]
    if unknown:
        print(f"error: unknown format {unknown[0]!r}", file=sys.stderr)
        return EXIT_INPUT
    input_names = [p.name for p in circuit.input_ports() if p.name != "vdd"]
    if args.sweep_inputs:
        if not args.builtin:
            print("error: --sweep-inputs requires --builtin", file=sys.stderr)
            return EXIT_INPUT
        vectors = analysis.input_vectors(args.builtin)
    elif args.inputs:
        try:
            vectors = [_parse_levels(args.inputs, input_names)]
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
    elif input_names:
        vectors = [{n: TernaryLevel.L0 for n in input_names}]
    else:
        vectors = [None]  # netlist drives itself (PWL sources)
    out_dir = _out_dir(args)
    supply = supply_voltage(circuit)
    bands = VoltageBands.default(supply)
    status = EXIT_OK
    for vec in vectors:
        stim = Stimulus.hold(vec, vdd=supply) if vec else None
        tag = "_".join(f"{k}{int(v)}" for k, v in (vec or {}).items()) or "run"
        try:
            wave = run_transient(circuit, stim, cfg)
        except (TransientError, SingularSystem) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_SOLVER
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
            try:
                t = analysis.measure_settling(wave, port.name, bands, stim)
                v_final = wave.port_voltage(port.name)[-1]
                print(f"  {tag}: {port.name} settled {t * 1e9:.2f} ns after "
                      f"last event at {v_final:.3f} V")
            except NotSettled:
                print(f"  {tag}: {port.name} NOT SETTLED by {cfg.t_stop:.2e} s")
                status = EXIT_SOLVER
    return status


def cmd_verify(args) -> int:
    decoders = list(analysis.DECODERS) if args.decoder == "all" else [args.decoder]
    backends = list(analysis.BACKENDS) if args.backend == "both" else [args.backend]
    out_dir = _out_dir(args)
    ok = True
    solver_failed = False
    for decoder in decoders:
        network = builtin_network(decoder)
        if args.fault:
            try:
                network = mutate_network(network, args.fault)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_INPUT
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
    try:
        levels = _parse_levels(f"{args.a},{args.b}", ["A", "B"])
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    dag = build_dag(builtin_network("display"))
    encoded = {k: encode_2bit(v) for k, v in levels.items()}
    outs = eval_circuit(dag, encoded)
    out_levels = {port: decode_2bit(bp) for port, bp in outs.items()}
    segments = analysis.segments_from_levels(out_levels)
    glyph, digit = analysis.seven_segment_render(segments)
    print(glyph)
    print(f"digit: {digit if digit is not None else 'unrecognized'}")
    return EXIT_OK


def cmd_compare(args) -> int:
    circuit = elaborate(builtin_network("display"))
    report = analysis.resource_report(circuit)
    text = report.to_json() if args.format == "json" else report.to_text()
    print(text)
    out_dir = _out_dir(args)
    suffix = "json" if args.format == "json" else "txt"
    path = out_dir / f"resource_report.{suffix}"
    _atomic_write(path, text + "\n")
    print(f"\nwrote {path}", file=sys.stderr)
    return EXIT_OK


def cmd_emit_netlist(args) -> int:
    try:
        circuit = elaborate(builtin_network(args.builtin))
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    text = serialize(circuit)
    if args.out_file == "-":
        sys.stdout.write(text)
    else:
        path = Path(args.out_file or f"{args.builtin}.net")
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
    sim.add_argument("--inputs", help="comma-separated input levels, e.g. 2,1")
    sim.add_argument("--sweep-inputs", action="store_true",
                     help="simulate every input vector")
    sim.add_argument("--t-stop", type=float, dest="t_stop",
                     help="simulation length in seconds")
    sim.add_argument("--dt", type=float, help="timestep in seconds")
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
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
