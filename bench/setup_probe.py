"""Set-up cost of one boxdim invocation, timed by its parent process.

    python3 bench/setup_probe.py CONFIG [CONFIG ...]

Imports boxdim (from PYTHONPATH) and builds the box space of every config
that has a [filtration] section, exactly as the CLI does before its task.
"""
import sys


def main(paths):
    from boxdim import build_box_space
    from boxdim.cli import filtration_from_config, group_from_config, load_config

    for path in paths:
        cfg = load_config(path)
        if "filtration" in cfg:
            spec = group_from_config(cfg)
            build_box_space(filtration_from_config(cfg, spec), threads=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
