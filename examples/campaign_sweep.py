"""Run a declarative, parallel, resumable experiment campaign.

Declares a campaign over every registered processor model, three kernels
and both engine backends, executes it on a multiprocessing worker pool
with a persistent result store, then re-runs it to show the incremental
behaviour (the second pass simulates nothing — every run is served from
the store by content fingerprint) and renders the aggregation tables.

Run with:  python examples/campaign_sweep.py [store_dir] [max_workers]

Run it twice: the second invocation finishes in milliseconds.  The same
store also drives the CLI, e.g.::

    python -m repro.campaign report --store campaign-store
"""

import sys

from repro.campaign import (
    ALL,
    CampaignSpec,
    render,
    run_campaign,
    speedup_table,
    summarize,
)

SWEEP = CampaignSpec(
    name="sweep",
    processors=(ALL,),
    workloads=("blowfish", "compress", "crc"),
    scales=(1,),
    engines=("interpreted", "generated"),
    description="Every registered model on three kernels, both backends",
)


def main():
    store = sys.argv[1] if len(sys.argv) > 1 else "campaign-store"
    max_workers = int(sys.argv[2]) if len(sys.argv) > 2 else None

    report = run_campaign(SWEEP, store=store, max_workers=max_workers)
    summary = report.summary()
    print(
        "campaign %(campaign)r: %(planned)d runs, %(executed)d executed, "
        "%(cached)d served from the store in %(wall_seconds).2fs" % summary
    )
    if report.skipped:
        print("skipped pairs:", ", ".join("%s/%s" % pair[:2] for pair in report.skipped))
    print()
    print(render(summarize(report)))
    print()
    print("generated-over-interpreted speedup (paper Figure 10 claim):")
    print(render(speedup_table(report)))
    if report.executed:
        print()
        print("re-run this script: the store now holds every fingerprint,")
        print("so the whole campaign will be served without simulating.")


if __name__ == "__main__":
    main()
