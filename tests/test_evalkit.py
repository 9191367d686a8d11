"""Dataset IO, hard-question mining, policies, and the evaluation loop."""

import json
import random
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from qnav import evalkit
from qnav.core import ActionKind, DatasetKind, StateVector, encode_state
from qnav.dqn import masked_argmax
from qnav.env import EnvConfig, ReasoningEpisode, episodes_in_flight
from qnav.evalkit import (
    DatasetError,
    EvalConfig,
    FixedSequencePolicy,
    MiningResult,
    NavigatorPolicy,
    QuestionRecord,
    RandomPolicy,
    evaluate,
    load_dataset,
    mine_hard,
    run_episode,
    save_dataset,
)
from qnav.gateway import (
    OpenAIChatBackend,
    ScriptedChatBackend,
    ScriptedPrm,
    ScriptedRule,
    Usage,
    UsageLog,
    WireConfig,
)
from qnav.net import DuelingNet

from conftest import EVAL_RESPONSE, SUBTASKS_RESPONSE, PooledScriptedChat, completion, standard_rules

R = ActionKind.REASON_ONE_STEP
DEC = ActionKind.DECOMPOSE
DEB = ActionKind.DEBATE
REF = ActionKind.REFINE
T = ActionKind.TERMINATE

NUM = DatasetKind.ELEMENTARY_MATH_NUMERIC


class TestDatasetIO:
    def test_round_trip(self, tmp_path, sample_questions):
        path = tmp_path / "d.jsonl"
        save_dataset(sample_questions, path)
        assert tuple(load_dataset(path)) == sample_questions

    def test_blank_lines_are_skipped(self, tmp_path, sample_questions):
        path = tmp_path / "d.jsonl"
        save_dataset(sample_questions, path)
        raw = path.read_text()
        path.write_text(raw.replace("\n", "\n\n"))
        assert len(load_dataset(path)) == len(sample_questions)

    def test_invalid_json_names_the_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "a", "question": "q", "answer": "1", "kind": "yes_no"}\nnot json\n')
        with pytest.raises(DatasetError, match="line 2"):
            load_dataset(path)

    def test_non_object_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('["list", "not", "object"]\n')
        with pytest.raises(DatasetError, match="line 1"):
            load_dataset(path)

    def test_missing_fields_are_listed(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "a", "question": "q"}\n')
        with pytest.raises(DatasetError, match="missing fields.*answer"):
            load_dataset(path)

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "a", "question": "q", "answer": "1", "kind": "essay"}\n')
        with pytest.raises(DatasetError, match="unknown kind"):
            load_dataset(path)

    def test_duplicate_ids(self, tmp_path):
        row = '{"id": "a", "question": "q", "answer": "1", "kind": "yes_no"}\n'
        path = tmp_path / "d.jsonl"
        path.write_text(row + row)
        with pytest.raises(DatasetError, match="duplicate id"):
            load_dataset(path)

    def test_empty_question(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "a", "question": "  ", "answer": "1", "kind": "yes_no"}\n')
        with pytest.raises(DatasetError, match="empty question"):
            load_dataset(path)

    def test_saved_lines_are_sorted_json(self, tmp_path, sample_questions):
        path = tmp_path / "d.jsonl"
        save_dataset(sample_questions, path)
        first = path.read_text().splitlines()[0]
        assert list(json.loads(first)) == sorted(json.loads(first))


def record(qid, question, answer, kind=NUM):
    return QuestionRecord(id=qid, question=question, answer=answer, kind=kind)


def test_save_dataset_failing_midway_keeps_the_previous_file(tmp_path, sample_questions):
    path = tmp_path / "hard_set.jsonl"
    save_dataset(sample_questions, path)
    before = path.read_bytes()
    broken = QuestionRecord(id="q3", question="What is 1 + 1?", answer=object(), kind=NUM)
    with pytest.raises(TypeError):  # not JSON serialisable, after two records were written
        save_dataset([*sample_questions, broken], path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["hard_set.jsonl"]


class TestMineHard:
    def test_keeps_wrong_and_unextractable_answers(self):
        dataset = [
            record("easy", "easy one", "7"),
            record("hard", "hard one", "12"),
            record("odd", "odd one", "3"),
        ]
        chat = ScriptedChatBackend(
            [
                ScriptedRule("easy one", "The answer is 7."),
                ScriptedRule("hard one", "The answer is 99."),
                ScriptedRule("odd one", "I cannot commit to a number."),
            ]
        )
        result = mine_hard(dataset, chat)
        assert [r.id for r in result.hard] == ["hard", "odd"]
        assert result.undetermined == ()
        assert result.total == 3
        assert result.proportion == pytest.approx(2 / 3)

    def test_equivalent_answers_count_as_solved(self):
        dataset = [record("frac", "a fraction", "0.5")]
        chat = ScriptedChatBackend([ScriptedRule("fraction", "The answer is 1/2.")])
        result = mine_hard(dataset, chat)
        assert result.hard == ()

    def test_gateway_failures_are_undetermined_not_hard(self):
        dataset = [record("up", "works", "7"), record("down", "broken", "7")]
        chat = ScriptedChatBackend([ScriptedRule("works", "The answer is 8.")])
        result = mine_hard(dataset, chat)  # "broken" matches no rule
        assert [r.id for r in result.hard] == ["up"]
        assert result.undetermined == ("down",)
        assert result.proportion == 1.0  # of the single determined question

    def test_usage_log_records_each_answered_call(self):
        dataset = [record("q1", "first question", "1")]
        chat = ScriptedChatBackend([ScriptedRule("first", "The answer is 2.")])
        logbook = UsageLog()
        mine_hard(dataset, chat, usage_log=logbook)
        assert logbook.calls == 1
        assert logbook.totals() == chat.call_log[0].usage
        assert logbook.totals().output_tokens > 0

    def test_mining_prompt_wording(self):
        dataset = [record("q1", "Count to three.", "3")]
        chat = ScriptedChatBackend([ScriptedRule("", "The answer is 3.")])
        mine_hard(dataset, chat)
        prompt = chat.call_log[0].request.prompt
        assert prompt.startswith("Count to three. Please generate the answer")
        assert prompt.endswith("Please end the answer with 'The answer is numerical_answer'.")

    def test_empty_dataset(self):
        result = mine_hard([], ScriptedChatBackend([]))
        assert result == MiningResult(hard=(), undetermined=(), total=0)
        assert result.proportion == 0.0


class TestPolicies:
    def test_fixed_sequence_follows_script_then_terminates(self):
        policy = FixedSequencePolicy()
        legal_all = sorted(ActionKind, key=int)
        assert policy.select(None, legal_all, 0) is DEC
        assert policy.select(None, legal_all, 1) is R
        assert policy.select(None, legal_all, 2) is REF
        assert policy.select(None, legal_all, 3) is T
        assert policy.select(None, legal_all, 4) is T

    def test_fixed_sequence_defers_to_mask(self):
        policy = FixedSequencePolicy()
        assert policy.select(None, [T], 0) is T
        assert policy.select(None, [T], 2) is T

    def test_random_policy_is_seeded_and_legal(self):
        legal = [R, DEB, T]
        pa, pb = RandomPolicy(7), RandomPolicy(7)
        a = [pa.select(None, legal, 0) for _ in range(20)]
        b = [pb.select(None, legal, 0) for _ in range(20)]
        assert a == b
        assert set(a) <= set(legal)
        assert len(set(a)) > 1

    def test_random_policy_trials_are_seeded_by_seed_question_and_trial(self):
        legal = sorted(ActionKind, key=int)

        def draws(policy):
            return [policy.select(None, legal, 0) for _ in range(20)]

        trial = draws(RandomPolicy(7).for_trial(2, 1))
        # a str seed is hashed with SHA-512: the same draws in every process
        rng = random.Random("7:2:1")
        assert trial == [legal[rng.randrange(len(legal))] for _ in range(20)]
        assert draws(RandomPolicy(7).for_trial(2, 0)) != trial
        assert draws(RandomPolicy(7).for_trial(1, 2)) != trial
        assert draws(RandomPolicy(8).for_trial(2, 1)) != trial

    def test_deterministic_policies_serve_every_trial_themselves(self):
        nav = NavigatorPolicy(DuelingNet.initialize(0, (6, 5)))
        fixed = FixedSequencePolicy()
        assert nav.for_trial(3, 2) is nav
        assert fixed.for_trial(3, 2) is fixed

    def test_navigator_policy_matches_masked_argmax(self):
        net = DuelingNet.initialize(0, (6, 5))
        policy = NavigatorPolicy(net)
        state = StateVector(scores=(1, 2, 3, 0, 1, 2, 3))
        legal = [R, DEC, T]
        want = masked_argmax(net.forward(encode_state(state)), legal)
        assert policy.select(state, legal, 1) is want


class TestRunEpisode:
    def test_trajectory_reaches_answer(self, chat, prm):
        episode = ReasoningEpisode(
            problem="What is 3 + 4?", kind=NUM, chat=chat, prm=prm, question_id="q"
        )
        run_episode(episode, FixedSequencePolicy())
        names = [a.name for a in episode.actions]
        assert names == ["DECOMPOSE", "REASON_ONE_STEP", "REFINE", "TERMINATE"]
        assert episode.final_answer == "7"  # only a step that ends the episode sets it

    def test_episode_respects_action_budget(self, chat, prm):
        episode = ReasoningEpisode(
            problem="What is 3 + 4?", kind=NUM, chat=chat, prm=prm
        )
        run_episode(episode, RandomPolicy(0))
        assert 1 <= len(episode.actions) <= 5
        assert episode.actions[-1] is T

    def test_policy_is_not_asked_once_only_terminate_is_legal(self, chat, prm):
        asked = []

        class Recording(FixedSequencePolicy):
            def select(self, state, legal, actions_taken):
                asked.append(list(legal))
                return super().select(state, legal, actions_taken)

        episode = ReasoningEpisode(
            problem="What is 3 + 4?", kind=NUM, chat=chat, prm=prm, cfg=EnvConfig(max_actions=3),
            navigate_only=True,
        )
        run_episode(episode, Recording())
        assert episode.actions == [DEC, R, T]
        assert len(asked) == 2 and all(len(legal) > 1 for legal in asked)


class TestEvalConfig:
    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            EvalConfig(trials=0)

    def test_defaults(self):
        cfg = EvalConfig()
        assert cfg.trials == 3
        assert cfg.seed == 0
        assert cfg.env == EnvConfig()


class TestEvaluate:
    def run(self, dataset, chat, trials=3, offline=True, policy=None):
        return evaluate(
            policy or FixedSequencePolicy(),
            dataset,
            chat,
            ScriptedPrm(),
            EvalConfig(trials=trials),
            offline=offline,
        )

    def test_correct_answer_counted(self, sample_questions):
        chat = ScriptedChatBackend(standard_rules())
        report = self.run(list(sample_questions), chat)
        assert report.total == 2
        assert report.correct == 2
        assert report.accuracy == 1.0
        by_id = {r.id: r for r in report.results}
        assert by_id["q1"].final_answer == "7"
        assert by_id["q2"].final_answer == "B"
        assert by_id["q1"].trial_answers == ("7", "7", "7")
        assert by_id["q1"].tie_broken is False

    def test_wrong_answer_counted(self):
        rules = [r for r in standard_rules() if "numerical_answer" not in r.contains]
        rules.append(ScriptedRule("The answer is numerical_answer", "The answer is 8."))
        chat = ScriptedChatBackend(rules)
        report = self.run([record("q1", "What is 3 + 4?", "7")], chat)
        assert report.correct == 0
        assert report.results[0].final_answer == "8"
        assert report.results[0].correct is False

    def test_winning_trial_actions_recorded(self, sample_questions):
        chat = ScriptedChatBackend(standard_rules())
        report = self.run([sample_questions[0]], chat)
        assert report.results[0].actions == (
            "DECOMPOSE",
            "REASON_ONE_STEP",
            "REFINE",
            "TERMINATE",
        )

    def test_usage_accumulates_per_question_and_run(self, sample_questions):
        chat = ScriptedChatBackend(standard_rules())
        report = self.run([sample_questions[0]], chat, trials=2)
        q = report.results[0]
        assert q.input_tokens > 0 and q.output_tokens > 0
        assert report.usage.input_tokens == q.input_tokens
        assert report.usage.output_tokens == q.output_tokens

    def test_offline_zeroes_wall_time(self, sample_questions):
        chat = ScriptedChatBackend(standard_rules())
        report = self.run([sample_questions[0]], chat, offline=True)
        assert report.results[0].wall_time_s == 0.0

    def test_online_measures_wall_time(self, sample_questions):
        chat = ScriptedChatBackend(standard_rules())
        report = self.run([sample_questions[0]], chat, offline=False)
        assert report.results[0].wall_time_s > 0.0

    def test_failed_trials_do_not_vote(self):
        # terminate rule answers once, then switches to an unparseable reply:
        # trials 2 and 3 still terminate but extract nothing
        rules = [r for r in standard_rules() if "numerical_answer" not in r.contains]
        rules.append(
            ScriptedRule(
                "The answer is numerical_answer",
                ["The answer is 7.", "no comment", "no comment"],
            )
        )
        chat = ScriptedChatBackend(rules)
        report = self.run([record("q1", "What is 3 + 4?", "7")], chat)
        assert report.results[0].trial_answers == ("7", None, None)
        assert report.results[0].final_answer == "7"
        assert report.correct == 1

    def test_all_trials_failing_scores_zero(self):
        chat = ScriptedChatBackend([])  # nothing matches: reset fails every trial
        report = self.run([record("q1", "What is 3 + 4?", "7")], chat)
        assert report.results[0].trial_answers == (None, None, None)
        assert report.results[0].final_answer is None
        assert report.results[0].correct is False
        assert report.accuracy == 0.0

    def test_question_with_no_answer_reports_the_first_trial_that_acted(self):
        # Trial 0 fails at its first self-evaluation, before any action; trial 1
        # acts, but its terminate reply holds no answer marker.
        rules = [ScriptedRule("Please evaluate the current step", EVAL_RESPONSE, fail_times=1)]
        rules += [r for r in standard_rules() if r.contains not in (rules[0].contains, "The answer is numerical_answer")]
        rules.append(ScriptedRule("The answer is numerical_answer", "no comment"))
        report = self.run([record("q1", "What is 3 + 4?", "7")], ScriptedChatBackend(rules), trials=2)
        q = report.results[0]
        assert q.final_answer is None
        assert q.trial_answers == (None, None)
        assert q.actions == ("DECOMPOSE", "REASON_ONE_STEP", "REFINE", "TERMINATE")
        assert report.failed_trials == 1

    def test_actions_come_from_the_trial_whose_answer_won(self):
        # Trial 0 extracts no answer, trial 1 answers 8, trials 2 and 3 answer 7:
        # 7 wins, first given by trial 2, which took Debate.
        class ScriptPerTrial(FixedSequencePolicy):
            SCRIPTS = ((), (R,), (DEB,), (DEC,))

            def for_trial(self, question_index, trial):
                policy = FixedSequencePolicy()
                policy.SCRIPT = self.SCRIPTS[trial]
                return policy

        rules = [r for r in standard_rules() if "numerical_answer" not in r.contains]
        endings = ["no comment", "The answer is 8.", "The answer is 7.", "The answer is 7."]
        rules.append(ScriptedRule("The answer is numerical_answer", endings))
        report = self.run([record("q1", "What is 3 + 4?", "7")], ScriptedChatBackend(rules), trials=4,
                          policy=ScriptPerTrial())
        q = report.results[0]
        assert q.trial_answers == (None, "8", "7", "7")
        assert q.final_answer == "7"
        assert q.actions == ("DEBATE", "TERMINATE")

    def test_a_failed_trial_is_counted_apart_from_one_without_an_answer(self):
        # Trial 0 fails at its first self-evaluation; trial 1 terminates with
        # no answer marker; trial 2 answers.
        rules = [ScriptedRule("Please evaluate the current step", EVAL_RESPONSE, fail_times=1)]
        rules += [r for r in standard_rules() if r.contains not in (rules[0].contains, "The answer is numerical_answer")]
        rules.append(ScriptedRule("The answer is numerical_answer", ["no comment", "The answer is 7."]))
        report = self.run([record("q1", "What is 3 + 4?", "7")], ScriptedChatBackend(rules))
        q = report.results[0]
        assert q.trial_answers == (None, None, "7")
        assert q.failed_trials == 1
        assert report.failed_trials == 1
        assert q.final_answer == "7" and q.correct

    def test_usage_counts_the_calls_of_a_trial_whose_step_failed(self):
        # Trial 0's decompose split and its re-prompt do not parse; later trials' do.
        rules = [r for r in standard_rules() if "Please decompose" not in r.contains]
        rules.append(ScriptedRule("Please decompose the current task into subtasks",
                                  ["no markers", "no markers", SUBTASKS_RESPONSE]))
        chat = ScriptedChatBackend(rules)
        report = self.run([record("q1", "What is 3 + 4?", "7")], chat)
        assert report.results[0].trial_answers == (None, "7", "7")
        assert report.usage == sum((e.usage for e in chat.call_log), Usage())
        q = report.results[0]
        assert (q.input_tokens, q.output_tokens) == (report.usage.input_tokens, report.usage.output_tokens)

    def test_vote_seed_offsets_by_question_index(self):
        # two questions tying 1-1; identical candidates but different vote
        # seeds, derived from cfg.seed + index
        rules = [r for r in standard_rules() if "numerical_answer" not in r.contains]
        rules.append(
            ScriptedRule(
                "The answer is numerical_answer",
                ["The answer is 1.", "The answer is 2."] * 2,
            )
        )
        chat = ScriptedChatBackend(rules)
        dataset = [record("qa", "What is 3 + 4?", "1"), record("qb", "What is 3 + 4 now?", "1")]
        report = self.run(dataset, chat, trials=2)
        for i, q in enumerate(report.results):
            assert q.tie_broken is True
            assert q.final_answer == random.Random(0 + i).choice(["1", "2"])

    def test_trials_skip_the_self_evaluation_of_a_forced_terminate(self, sample_questions):
        # Decompose, Reason, Refine on a budget of 4 forces Terminate: reset
        # and the first two blocks self-evaluate, Refine's context does not.
        chat = ScriptedChatBackend(standard_rules())
        evaluate(FixedSequencePolicy(), [sample_questions[0]], chat, ScriptedPrm(),
                 EvalConfig(trials=2, env=EnvConfig(max_actions=4)), offline=True)
        self_evals = sum("Please evaluate the current step" in e.request.prompt for e in chat.call_log)
        assert self_evals == 2 * 3

    def test_report_json_is_stable(self, sample_questions):
        chat1 = ScriptedChatBackend(standard_rules())
        chat2 = ScriptedChatBackend(standard_rules())
        a = self.run(list(sample_questions), chat1)
        b = self.run(list(sample_questions), chat2)
        assert json.dumps(a.to_jsonable(), sort_keys=True) == json.dumps(
            b.to_jsonable(), sort_keys=True
        )

    def test_report_jsonable_shape(self, sample_questions):
        chat = ScriptedChatBackend(standard_rules())
        doc = self.run(list(sample_questions), chat).to_jsonable()
        assert set(doc) == {"accuracy", "correct", "total", "usage", "questions"}
        assert doc["total"] == 2
        assert len(doc["questions"]) == 2
        assert set(doc["questions"][0]) == {
            "id",
            "final_answer",
            "correct",
            "actions",
            "trial_answers",
            "failed_trials",
            "tie_broken",
            "input_tokens",
            "output_tokens",
            "wall_time_s",
        }


def yes_no_unanswerable_rules():
    """standard_rules without the yes/no endings: a yes/no trial fails at Terminate."""
    return [r for r in standard_rules() if "YES/NO" not in r.contains and "answer is yes" not in r.contains]


CONCURRENT_DATASET = (
    record("c1", "What is 3 + 4?", "7"),
    record("c2", "What is 3 + 4? Choices: (A) 6 (B) 7 (C) 8.", "B", DatasetKind.MULTIPLE_CHOICE),
    record("c3", "Is 3 + 4 equal to 7?", "yes", DatasetKind.YES_NO),
    record("c4", "Box the value of 3 + 4.", "7", DatasetKind.MATH_BOXED),
    record("c5", "What is 3 + 5?", "8"),
)


class TestConcurrentEvalAndMining:
    @pytest.mark.parametrize("make_policy", [
        lambda: NavigatorPolicy(DuelingNet.initialize(3, (6, 5))),
        FixedSequencePolicy,
        lambda: RandomPolicy(5),
    ], ids=["nav", "fixed-sequence", "random"])
    def test_report_is_byte_identical_at_one_and_four_workers(self, make_policy, fast_thread_switching):
        payloads = []
        for workers in (1, 4):
            chat = PooledScriptedChat(yes_no_unanswerable_rules(), max_in_flight=workers)
            report = evaluate(
                make_policy(), CONCURRENT_DATASET, chat, ScriptedPrm(), EvalConfig(trials=3, seed=2), offline=True
            )
            assert (chat.peak == 1) if workers == 1 else (chat.peak > 1)
            payloads.append(json.dumps(report.to_jsonable(), indent=2, sort_keys=True))
        assert payloads[0] == payloads[1]
        doc = json.loads(payloads[0])
        assert [q["id"] for q in doc["questions"]] == [r.id for r in CONCURRENT_DATASET]
        assert doc["questions"][2]["trial_answers"] == [None, None, None]

    def test_each_question_counts_only_its_own_tokens(self, fast_thread_switching):
        def run(dataset, workers):
            chat = PooledScriptedChat(yes_no_unanswerable_rules(), max_in_flight=workers)
            return evaluate(FixedSequencePolicy(), dataset, chat, ScriptedPrm(), EvalConfig(trials=3), offline=True)

        together = run(CONCURRENT_DATASET, 4)
        for result, question in zip(together.results, CONCURRENT_DATASET):
            alone = run([question], 1)
            assert (result.input_tokens, result.output_tokens) == (alone.usage.input_tokens, alone.usage.output_tokens)
        assert together.usage == Usage(sum(r.input_tokens for r in together.results),
                                       sum(r.output_tokens for r in together.results))
        assert len({r.input_tokens for r in together.results}) > 1  # the questions' counts differ

    def test_mining_result_is_identical_at_one_and_four_workers(self, fast_thread_switching):
        dataset = [record(f"m{i}", f"What is {i} + {i}?", str(2 * i)) for i in range(12)]
        # m1, m5, m9 match no rule (undetermined); m3 and m6 get a wrong answer
        wrong = {3, 6}
        rules = [
            ScriptedRule(f"What is {i} + {i}?", f"The answer is {2 * i + (i in wrong)}.")
            for i in range(12)
            if i % 4 != 1
        ]
        results = []
        for workers in (1, 4):
            chat = PooledScriptedChat(rules, max_in_flight=workers)
            logbook = UsageLog()
            results.append((mine_hard(dataset, chat, usage_log=logbook), logbook.totals()))
            assert (chat.peak == 1) if workers == 1 else (chat.peak > 1)
        assert results[0] == results[1]
        mined = results[0][0]
        assert mined.undetermined == ("m1", "m5", "m9")
        assert [r.id for r in mined.hard] == ["m3", "m6"]

    def crashing_trial_setup(self, crash):
        """A chat cap of 4 runs 3 * 4 - 2 = 10 trials at once; four questions
        of three trials. The first ten trials meet at a barrier, so all ten
        have started before trial (1, 0) calls crash(); the other nine keep
        running for 0.3 s more. started lists the trials that began, first
        the ten that run at once."""
        chat = PooledScriptedChat(standard_rules(), max_in_flight=4)
        first = [(q, t) for q in range(4) for t in range(3)][:episodes_in_flight(chat)]
        ready = threading.Barrier(len(first), timeout=10)
        started = []

        class CrashingPolicy(FixedSequencePolicy):
            def for_trial(self, question_index, trial):
                started.append((question_index, trial))
                if (question_index, trial) in first:
                    ready.wait()
                    if (question_index, trial) == (1, 0):
                        crash()
                    else:
                        time.sleep(0.3)
                return self

        dataset = [record(f"q{i}", f"What is 3 + 4? ({i})", "7") for i in range(4)]
        return CrashingPolicy(), dataset, chat, started, first

    @staticmethod
    def terminated(chat):
        """Trials that reached their Terminate call."""
        return sum("numerical_answer" in e.request.prompt for e in chat.call_log)

    def test_unexpected_error_propagates_and_no_queued_trial_starts(self, monkeypatch):
        error = RuntimeError("navigator crashed")

        def crash():
            raise error

        def slow_wait(*args, **kwargs):
            # a caller slow to react (a loaded host) gives the crashed
            # trial's worker time to pick up the next queued trial
            done = real_wait(*args, **kwargs)
            time.sleep(0.05)
            return done

        real_wait = evalkit.wait
        monkeypatch.setattr(evalkit, "wait", slow_wait)
        policy, dataset, chat, started, first = self.crashing_trial_setup(crash)
        with pytest.raises(RuntimeError) as excinfo:
            evaluate(policy, dataset, chat, ScriptedPrm(), EvalConfig(trials=3), offline=True)
        assert excinfo.value is error
        assert sorted(started) == first
        # The nine trials already running finished first.
        assert chat.active == 0
        assert self.terminated(chat) == len(first) - 1

    @pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="needs signal.pthread_kill")
    def test_ctrl_c_propagates_and_no_queued_trial_starts(self):
        def ctrl_c():
            time.sleep(0.05)  # the caller has queued every trial and waits
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)

        policy, dataset, chat, started, first = self.crashing_trial_setup(ctrl_c)
        previous = signal.signal(signal.SIGINT, signal.default_int_handler)
        try:
            with pytest.raises(KeyboardInterrupt):
                evaluate(policy, dataset, chat, ScriptedPrm(), EvalConfig(trials=3), offline=True)
        finally:
            signal.signal(signal.SIGINT, previous)
        assert sorted(started) == first
        assert chat.active == 0
        assert self.terminated(chat) == len(first)


def rendezvous(slots):
    """A loopback handler holding POSTs until `slots` of them are in flight at once, then answering them together."""
    meet = threading.Barrier(slots, timeout=10)

    def answer(posted):
        meet.wait()
        return 200, completion("The answer is 2.", 3, 4)

    return answer


def test_wire_backend_never_exceeds_its_in_flight_cap_under_mining(loopback):
    # Two mining runs share one backend: four pool threads compete for two slots.
    loopback.handler = rendezvous(slots=2)
    chat = OpenAIChatBackend(WireConfig(base_url=loopback.url + "/v1", model="m", max_in_flight=2))
    runs = [[record(f"{tag}{i}", f"What is 1 + 1? ({tag}{i})", "2") for i in range(6)] for tag in "ab"]
    with ThreadPoolExecutor(max_workers=2) as outer:
        results = [f.result(timeout=30) for f in [outer.submit(mine_hard, run, chat) for run in runs]]
    assert loopback.peak == 2
    assert all(r.hard == () and r.undetermined == () for r in results)


STANDARD_RULES = standard_rules()


def scripted_reply(posted):
    """A loopback handler answering each chat POST from standard_rules after a brief pause."""
    time.sleep(0.002)
    prompt = posted.json()["messages"][0]["content"]
    return 200, completion(next(r.response for r in STANDARD_RULES if r.contains in prompt), 3, 4)


def test_wire_backend_never_exceeds_its_in_flight_cap_under_eval(loopback):
    # A cap of 2 runs 3 * 2 - 2 = 4 trials at once: four threads compete for two slots.
    loopback.handler = scripted_reply
    chat = OpenAIChatBackend(WireConfig(base_url=loopback.url + "/v1", model="m", max_in_flight=2))
    threads = set()  # the client threads that called the backend
    complete = chat.complete

    def recording_complete(request):
        threads.add(threading.get_ident())
        return complete(request)

    chat.complete = recording_complete
    dataset = [record(f"e{i}", f"What is 3 + 4? ({i})", "7") for i in range(3)]
    report = evaluate(FixedSequencePolicy(), dataset, chat, ScriptedPrm(), EvalConfig(trials=3))
    assert report.correct == 3
    assert len(threads) == 4
    assert loopback.peak == 2
