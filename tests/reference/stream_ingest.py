"""Per-element reference for the dataflow plane's ingestion callback.

This is the element-at-a-time ``ingest`` body that
:meth:`repro.streams.dataflow.DataflowPlane._make_ingest` replaced with a
batch-at-a-time kernel: each element runs the whole map/filter chain, then
its window index, bucket, count and credit entries are updated one by one.
``tests/test_stream_ingest_equivalence.py`` feeds both the same batches and
asserts identical plane state.
"""

from __future__ import annotations

from repro.streams.operators import JoinNode


def make_ingest(plane, runtime, ops, valve, side):
    """Build the per-element ingest callback for one window input."""
    origin = plane.start_at
    window_s = runtime.window_s
    buffers = runtime.buffers
    counts = runtime.counts
    credit_counts = runtime.credit_counts
    op = runtime.op
    if isinstance(op, JoinNode):
        key_fn = op.key_fn if side == 0 else op.right_key_fn
        mode = "join"
    elif op.key_fn is not None:
        key_fn = op.key_fn
        mode = "keyed"
    else:
        key_fn = None
        mode = "plain"

    def ingest(batch) -> None:
        filtered = 0
        added = 0
        for element in batch:
            value = element.value
            keep = True
            for kind, fn in ops:
                if kind == "map":
                    value = fn(value)
                elif not fn(value):
                    keep = False
                    break
            if not keep:
                filtered += 1
                continue
            index = int((element.timestamp - origin) // window_s)
            if index < runtime.next_index:
                # Late data (spilled or out-of-order): lands in the
                # earliest still-open window instead of being dropped.
                index = runtime.next_index
                plane.late_elements += 1
            bucket = buffers.get(index)
            if mode == "plain":
                if bucket is None:
                    bucket = buffers[index] = []
                bucket.append(value)
            elif mode == "keyed":
                if bucket is None:
                    bucket = buffers[index] = {}
                bucket.setdefault(key_fn(value), []).append(value)
            else:
                if bucket is None:
                    bucket = buffers[index] = ({}, {})
                bucket[side].setdefault(key_fn(value), []).append(value)
            counts[index] = counts.get(index, 0) + 1
            added += 1
            if valve is not None:
                per_window = credit_counts.get(index)
                if per_window is None:
                    per_window = credit_counts[index] = {}
                per_window[valve] = per_window.get(valve, 0) + 1
        plane.elements_ingested += len(batch)
        if valve is not None and filtered:
            # Filtered elements never reach a window task: their
            # credits return immediately.
            valve.grant(filtered)
        if added:
            plane._buffered += added
            if plane._buffered > plane.buffered_high_water:
                plane.buffered_high_water = plane._buffered

    return ingest
