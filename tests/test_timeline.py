"""Tests for the timeline rendering utilities."""

from repro.adversary.crash import ScheduledCrash
from repro.analysis.timeline import describe, render_timeline, round_summaries
from repro.core.crash_renaming import CrashRenamingConfig, run_crash_renaming
from repro.obs import EventRecorder


def traced_run():
    """The run and the events an :class:`EventRecorder` kept of it."""
    recorder = EventRecorder()
    result = run_crash_renaming(
        range(1, 9),
        adversary=ScheduledCrash({4: [2]}),
        config=CrashRenamingConfig(election_constant=4),
        seed=3, observer=recorder,
    )
    return result, recorder.events()


class TestRoundSummaries:
    def test_one_summary_per_round(self):
        result, events = traced_run()
        summaries = round_summaries(result, events)
        assert len(summaries) == result.rounds
        assert [s.round_no for s in summaries] == list(
            range(1, result.rounds + 1)
        )

    def test_crash_appears_in_its_round(self):
        summaries = round_summaries(*traced_run())
        assert summaries[3].crashes == (2,)
        assert all(s.crashes == () for s in summaries if s.round_no != 4)

    def test_terminations_in_final_round(self):
        summaries = round_summaries(*traced_run())
        assert summaries[-1].finished == 7
        assert all(s.finished == 0 for s in summaries[:-1])

    def test_message_totals_match_metrics(self):
        result, events = traced_run()
        assert (sum(s.messages for s in round_summaries(result, events))
                == result.metrics.correct_messages)


class TestRendering:
    def test_timeline_mentions_crash(self):
        result, events = traced_run()
        text = render_timeline(result, events)
        assert "crash:[2]" in text
        assert text.count("\n") == result.rounds - 1

    def test_timeline_is_the_recorded_shape(self):
        text = render_timeline(*traced_run())
        lines = text.splitlines()
        assert lines[0] == f"r   1 |{'#' * 40}|      64 msgs"
        assert lines[3] == f"r   4 |{'#' * 35:<40}|      56 msgs  crash:[2]"
        assert lines[-1] == f"r  27 |{'#' * 31:<40}|      49 msgs  done:7"

    def test_empty_execution(self):
        recorder = EventRecorder()
        result = run_crash_renaming([42], namespace=50, observer=recorder)
        assert render_timeline(result, recorder.events()) == (
            "(no rounds executed)")

    def test_describe_contains_key_facts(self):
        result, _ = traced_run()
        text = describe(result)
        assert f"{result.rounds} rounds" in text
        assert "1 crashed" in text
        assert "7 correct nodes finished" in text
