"""Python rows behind a cursor's window scans, for the tests.

:meth:`SegmentCursor.scan` answers a window as id columns and
:meth:`SegmentCursor.scan_columns` decodes them to keys, times and
values; these helpers read them back as the row tuples and float
columns the assertions compare.
"""

import math

import numpy as np


def scan_rows(cursor, start=-math.inf, end=math.inf, select=None):
    """Per selected series with rows in ``[start, end]``, ``(key,
    [(time, value), ...])``, in file order."""
    keys, counts, times, values = cursor.scan_columns(start, end, select)
    rows = list(zip(times.tolist(), values))
    ends = np.cumsum(counts).tolist()
    return [(key, rows[hi - n:hi])
            for key, n, hi in zip(keys, counts.tolist(), ends)]


def last_rows(cursor, end=math.inf, select=None):
    """Per selected series, its last ``(key, time, value)`` at or before
    ``end``."""
    return [(key, *rows[-1])
            for key, rows in scan_rows(cursor, -math.inf, end, select)]


def float_columns(cursor, start=-math.inf, end=math.inf, select=None,
                  counters=None):
    """``(keys, counts, times, values)`` with float64 values; a
    non-numeric value raises ``TypeError``."""
    keys, counts, times, values = cursor.scan_columns(start, end, select,
                                                      counters)
    if not all(isinstance(v, (int, float)) for v in values):
        raise TypeError("column scan over non-numeric series values")
    return keys, counts, times, np.asarray([float(v) for v in values],
                                           dtype="<f8")
