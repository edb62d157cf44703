"""Visualising doze-mode: what the client radio actually does.

Air indexing exists so the radio can sleep: probe the index, doze, wake
exactly when the needed pages fly by.  This example answers one Hybrid-NN
query, then renders each channel's activity as an ASCII timeline — bursts
of ``#`` (receptions) separated by long stretches of ``.`` (dozing) — and
prints the duty cycle and an energy estimate.  A second run over a lossy
channel shows retransmission waits (``!``) stretching the timeline.

Run:  python examples/radio_timeline.py
"""

from repro import HybridNN, Point, TNNEnvironment
from repro.broadcast import BroadcastChannel, ChannelTuner, EnergyModel, PageLossModel
from repro.client import BroadcastNNSearch
from repro.datasets import uniform
from repro.sim import render_timeline, trace_summary


def main() -> None:
    env = TNNEnvironment.build(uniform(4_000, seed=1), uniform(4_000, seed=2))
    p = Point(19_500.0, 19_500.0)

    # Run the query on our own tuners so we keep them (and their logs).
    tuner_s, tuner_r = env.tuners(phase_s=23.0, phase_r=71.0)
    result = HybridNN().run_stages(env, p, tuner_s, tuner_r)
    print(f"Hybrid-NN answered: pair distance {result.distance:.1f}\n")
    print(render_timeline([tuner_s, tuner_r], labels=["S", "R"], width=72))

    energy = EnergyModel()
    for label, tuner in (("S", tuner_s), ("R", tuner_r)):
        summary = trace_summary(tuner)
        joules = energy.joules(summary.pages, tuner.now)
        print(
            f"channel {label}: {summary.pages} pages received, "
            f"duty cycle {summary.duty_cycle:.1%}, ~{joules * 1000:.1f} mJ"
        )

    # The same NN search over a fading channel: losses stretch the run.
    print("\nOne NN search over a 30%-loss channel:")
    lossy = ChannelTuner(
        BroadcastChannel(env.s_program, phase=23.0),
        loss=PageLossModel(rate=0.3, seed=4),
    )
    search = BroadcastNNSearch(env.s_tree, lossy, p)
    search.run_to_completion()
    print(render_timeline([lossy], labels=["S"], width=72))
    summary = trace_summary(lossy)
    print(
        f"{summary.pages} receptions, {summary.lost_pages} lost, "
        f"finished at t = {lossy.now:.0f} pages"
    )


if __name__ == "__main__":
    main()
