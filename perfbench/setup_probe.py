"""Time phburgers' set-up in this fresh interpreter and print the seconds.

    python3 perfbench/setup_probe.py SRC_DIR H NU

Covers what every command-line invocation pays before its first step:
importing the package, building the mesh, assembling the operators and
making the initial state of the pulse data.
"""

import sys
from time import perf_counter


def main() -> None:
    src, h, nu = sys.argv[1], float(sys.argv[2]), float(sys.argv[3])
    sys.path.insert(0, src)
    t0 = perf_counter()
    import phburgers
    from phburgers import diagnostics, fem1d

    mesh = phburgers.build_mesh(round(1.0 / h))
    ops = phburgers.assemble_operators(mesh)
    phburgers.make_state(ops, fem1d.interpolate(mesh, diagnostics.gaussian_pulse), nu=nu)
    print(repr(perf_counter() - t0))


if __name__ == "__main__":
    main()
