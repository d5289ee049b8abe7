"""Cold start: import the CLI and parse each scenario configuration once.

    python3 bench/cold_start.py SCENARIO CONFIG_JSON [SCENARIO CONFIG_JSON ...]

``run.py`` times this whole process, interpreter start included, as setup_s.
"""

import sys

from tunnellab import cli

for scenario, text in zip(sys.argv[1::2], sys.argv[2::2]):
    cli.parse_config(text, scenario)
