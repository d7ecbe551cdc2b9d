"""Set-up probe: import epbeat's CLI, load a config, build the problem.

Usage: python3 perfbench/probe_setup.py CONFIG_JSON

The runner times this whole process (fresh interpreter included) as
one `setup_s` sample. The process samples the host speed from its
first line on (hostspeed.py) and prints the probe's figures as JSON.
"""

import json
import sys

from hostspeed import SpeedProbe

if __name__ == "__main__":
    probe = SpeedProbe()
    probe.start()
    from epbeat.cli import load_config
    from epbeat.model import build_problem
    build_problem(load_config(sys.argv[1]))
    print(json.dumps(probe.stop()))
