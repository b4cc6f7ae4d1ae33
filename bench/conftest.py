"""The benchmark's tests import skewprod from this checkout's src/, as run.py does.

    python3 -m pytest bench -q
"""
import run

run.load_skewprod()
