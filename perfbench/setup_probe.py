"""Set-up probe: a fresh interpreter up to the first pipeline call.

    python3 perfbench/setup_probe.py CONFIG.json

Imports ``mlq.cli`` (with numpy and scipy), loads the config and builds the
potential, then prints ``time.monotonic_ns()``.  The caller reads the clock
before it starts this process; the difference is the set-up time.  Linux
reads both clocks from the same system-wide monotonic source.
"""

import sys
import time


def main() -> int:
    import mlq.cli

    cfg = mlq.cli.load_config(sys.argv[1])
    mlq.cli.make_potential(cfg.spec)
    print(time.monotonic_ns())
    return 0


if __name__ == "__main__":
    sys.exit(main())
