"""Empty: kept only because the benchmark imports it.

common_denominator, the last function here, lives in braidinv.render, and
no request loads this module.  bench/run.py --trace 1 and bench/smoke.py
import every module in bench/layers.py's MODULES; the file goes once that
tuple drops power_series.
"""
