"""Record ``reference.json``: the simulated results the benchmark checks.

Run from the repository root, on a commit whose results are trusted:

    python3 perfbench/record.py

It stores, for every input the workloads can draw, the summaries that
``workloads.py`` compares against: levels, settle times and port voltages
of each ``steady_output``, and window levels and voltages, glitch counts and
settle times of each switching transient.  A change meant only to speed up
the simulator must leave the file as it is.
"""

import json

import run


def steady(circuit, vec) -> dict:
    from ternsim import engine
    from workloads import summarize_steady
    return summarize_steady(*engine.steady_output(circuit, vec, return_info=True))


def main() -> None:
    run.import_program()
    import workloads as w
    from ternsim import analysis
    from ternsim.netlist import cells

    verify = w.VerifyAll(0, {})
    verify.setup()
    ref = {"verify_all": {
        f"{d}:{w.vector_key(vec)}": steady(verify.circuits[d], vec)
        for d in analysis.DECODERS for vec in analysis.input_vectors(d)}}

    tiled = w.TiledDisplay(0, {})
    tiled.setup()
    ref["tiled_display"] = {}
    for k in (*w.TILE_SWEEP, w.TILE_K):
        circuit = (tiled.circuit if k == w.TILE_K
                   else cells.elaborate(w.tiled_network(k)))
        for vec in analysis.input_vectors("display"):
            ref["tiled_display"][f"display_x{k}:{w.vector_key(vec)}"] = \
                steady(circuit, vec)

    transient = w.TransientSwitching(0, {})
    transient.setup()
    ref["transient_switching"] = {
        str(i): w.run_transient_job(
            transient.circuit, w.transient_stimulus(w.transient_sequence(i)))
        for i in w.TRANSIENT_POOL}

    w.REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {w.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
