"""Host-clock benchmark of the repro package (see ``hostbench/run.py``)."""
