"""Time what every CLI call pays before it works: import fdvi and build the problem.

Usage: python3 setup_probe.py SRC_DIR CONFIG [OVERRIDE ...]
Prints the elapsed seconds.  Run it in a fresh process each time.
"""

import sys
import time


def main() -> None:
    src, config, *overrides = sys.argv[1:]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import fdvi.cli  # noqa: F401  (the CLI imports every module)
    from fdvi.config import apply_overrides, build_problem, load_config

    build_problem(apply_overrides(load_config(config), overrides))
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
