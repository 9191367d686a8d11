"""Acceptance gate: one test per shipped guarantee, at its stated tolerance.

Run ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion. Everything here is deterministic and offline except the final
smoke test, which only runs when live-endpoint environment variables are set.
"""

import json
import os
import time

import numpy as np
import pytest

from conftest import batch_of, block_calls, gradient_of, standard_rules, value_and_advantage
from qnav import cli, env, synthetic
from qnav.answers import answers_equivalent, extract_answer, majority_vote
from qnav.core import (
    NUM_ACTIONS,
    STATE_DIM,
    ActionKind,
    DatasetKind,
    StateVector,
    Transition,
    encode_state,
)
from qnav.dqn import TrainerConfig, epsilon_at, lr_at, run_training, td_targets
from qnav.env import EnvConfig, legal_action_set
from qnav.evalkit import QuestionRecord, mine_hard, save_dataset
from qnav.gateway import (
    OpenAIChatBackend,
    ScriptedChatBackend,
    ScriptedPrm,
    UsageLog,
    WireConfig,
)
from qnav.net import DuelingNet

WIDTHS_CYCLE = ((4, 4), (48, 40), (64, 32))


def _kink_clear_sample(rng, widths, margin):
    """Draw (net, x) with every relu pre-activation at least margin from zero.

    Central differences on a relu net estimate the derivative only when no
    unit flips sign inside the perturbation interval. Parameter perturbations
    of size h move any pre-activation by well under 10h here (inputs are in
    [0, 1] and init weights are below 1), so this margin keeps every one of
    the finite-difference probes on a single linear piece.
    """
    while True:
        net = DuelingNet.initialize(int(rng.integers(1_000_000)), widths)
        x = rng.uniform(0.0, 1.0, size=STATE_DIM)
        p = net.params
        z1 = x @ p["w1"].T + p["b1"]
        z2 = np.maximum(z1, 0.0) @ p["w2"].T + p["b2"]
        if min(np.min(np.abs(z1)), np.min(np.abs(z2))) >= margin:
            return net, x


def _stacked_q(params, x):
    """Q-values of state x under a stack of nets, one per leading index of every params[k].

    A test-local reference forward: each ± finite-difference probe is one net
    of the stack, so a parameter block's probes run in a few numpy calls.
    """
    z1 = np.einsum("nij,j->ni", params["w1"], x) + params["b1"]
    h1 = np.maximum(z1, 0.0)
    z2 = np.einsum("nij,nj->ni", params["w2"], h1) + params["b2"]
    h2 = np.maximum(z2, 0.0)
    value = np.einsum("ni,ni->n", h2, params["wv"]) + params["bv"][:, 0]
    advantage = np.einsum("nai,ni->na", params["wa"], h2) + params["ba"]
    return value[:, None] + advantage - advantage.mean(axis=1, keepdims=True)


def _probe_objective(net, x, dq, key, components, delta):
    """dq . Q(x), one net per entry of components: params[key]'s flat component moved by delta."""
    n = len(components)
    stack = {k: np.broadcast_to(v, (n, *v.shape)) for k, v in net.params.items()}
    moved = np.repeat(net.params[key][None], n, axis=0)
    moved.reshape(n, -1)[np.arange(n), components] += delta
    stack[key] = moved
    return _stacked_q(stack, x) @ dq


def test_criterion_01_gradient_fidelity():
    """Analytic gradients match central finite differences on every component
    of 100 random (net, input, upstream-gradient) triples, within relative
    error 1e-4 (absolute floor 1e-8), in under 10 seconds of CPU time (wall
    time would also count whatever else the host runs).

    The probes run through _stacked_q, checked first against net.forward on
    the unperturbed net to within 1e-12."""
    start = time.process_time()
    rng = np.random.default_rng(1234)
    h = 1e-4
    chunk = 512
    for trial in range(100):
        widths = WIDTHS_CYCLE[trial % len(WIDTHS_CYCLE)]
        net, x = _kink_clear_sample(rng, widths, margin=10 * h)
        dq = rng.normal(size=NUM_ACTIONS)
        grads = gradient_of(net, x, dq)
        unperturbed = {k: v[None] for k, v in net.params.items()}
        assert np.max(np.abs(_stacked_q(unperturbed, x)[0] - net.forward(x))) <= 1e-12
        for key in sorted(net.params):
            grad_flat = grads[key].reshape(-1)
            for lo in range(0, grad_flat.size, chunk):
                components = np.arange(lo, min(lo + chunk, grad_flat.size))
                f_plus = _probe_objective(net, x, dq, key, components, h)
                f_minus = _probe_objective(net, x, dq, key, components, -h)
                fd = (f_plus - f_minus) / (2.0 * h)
                g = grad_flat[components]
                tol = np.maximum(1e-8, 1e-4 * np.maximum(np.abs(g), np.abs(fd)))
                bad = np.flatnonzero(np.abs(g - fd) > tol)
                assert not bad.size, (
                    f"widths {widths} param {key}[{components[bad[0]]}]: "
                    f"analytic {g[bad[0]]} vs central fd {fd[bad[0]]}"
                )
    elapsed = time.process_time() - start
    assert elapsed < 10.0, f"gradient check took {elapsed:.2f}s of CPU time (budget 10s)"


def test_criterion_02_dueling_identity_and_advantage_shift():
    """Q = V + A - mean(A) to 1e-12 on 1000 random nets/inputs, and shifting
    every advantage bias by a constant never changes the argmax."""
    rng = np.random.default_rng(99)
    for trial in range(1000):
        widths = WIDTHS_CYCLE[trial % len(WIDTHS_CYCLE)]
        net = DuelingNet.initialize(int(rng.integers(1_000_000)), widths)
        x = rng.uniform(0.0, 1.0, size=STATE_DIM)
        q = net.forward(x)
        value, advantage = value_and_advantage(net, x)
        recombined = value + advantage - advantage.mean()
        assert np.max(np.abs(q - recombined)) <= 1e-12

        shifted = net.clone()
        shifted.params["ba"] += float(rng.uniform(-5.0, 5.0))
        assert int(np.argmax(shifted.forward(x))) == int(np.argmax(q))


def _random_transition(rng, done=None):
    return Transition(
        state=StateVector(tuple(int(v) for v in rng.integers(0, 4, size=STATE_DIM))),
        action=ActionKind(int(rng.integers(NUM_ACTIONS))),
        reward=float(rng.normal()),
        next_state=StateVector(tuple(int(v) for v in rng.integers(0, 4, size=STATE_DIM))),
        done=bool(rng.random() < 0.3) if done is None else done,
    )


def _scalar_double_dqn_target(transition, online, target, gamma):
    """Hand-rolled target for one transition: select online, evaluate target."""
    if transition.done:
        return transition.reward
    x = encode_state(transition.next_state)
    q_online = [float(v) for v in online.forward(x)]
    best = max(range(len(q_online)), key=lambda i: (q_online[i], -i))
    return transition.reward + gamma * float(target.forward(x)[best])


def test_criterion_03_double_dqn_targets_match_scalar_oracle():
    """td_targets equals the scalar hand oracle to 1e-12 on 500 random small
    batches; done and gamma=0 cases degenerate to y=r exactly."""
    rng = np.random.default_rng(7)
    gammas = (0.9, 0.5, 0.99)
    online = target = None
    for batch_idx in range(500):
        if batch_idx % 50 == 0:
            online = DuelingNet.initialize(int(rng.integers(1_000_000)), (8, 6))
            target = DuelingNet.initialize(int(rng.integers(1_000_000)), (8, 6))
        gamma = gammas[batch_idx % len(gammas)]
        batch = [_random_transition(rng) for _ in range(8)]
        got = td_targets(batch_of(batch), online, target, gamma)
        for i, t in enumerate(batch):
            expected = _scalar_double_dqn_target(t, online, target, gamma)
            assert abs(float(got[i]) - expected) <= 1e-12

    done_batch = [_random_transition(rng, done=True) for _ in range(16)]
    rewards = np.array([t.reward for t in done_batch])
    assert np.array_equal(td_targets(batch_of(done_batch), online, target, 0.9), rewards)

    live_batch = [_random_transition(rng, done=False) for _ in range(16)]
    rewards = np.array([t.reward for t in live_batch])
    assert np.array_equal(td_targets(batch_of(live_batch), online, target, 0.0), rewards)


def test_criterion_04_schedules_exact_values():
    """Default epsilon and learning-rate schedules hit the documented values
    exactly at steps/episodes 0, 1, 1000, and 2500."""
    cfg = TrainerConfig()
    assert lr_at(cfg, 0) == 0.01
    assert lr_at(cfg, 1) == 0.01
    assert lr_at(cfg, 1000) == 0.005
    assert lr_at(cfg, 2500) == 0.0025
    assert epsilon_at(cfg, 0) == 1.0
    assert epsilon_at(cfg, 1) == 0.9995
    assert epsilon_at(cfg, 1000) == 0.9995 ** 1000
    assert epsilon_at(cfg, 2500) == 0.9995 ** 2500


def test_criterion_05_masking_truth_table():
    """legal_action_set matches the hand-enumerated table for every
    (answer_present, actions_taken) pair at the default budget of 5."""
    TERM = ActionKind.TERMINATE
    all_five = frozenset(ActionKind)
    expected = {}
    for taken in range(5):
        expected[(True, taken)] = frozenset({TERM})
    expected[(False, 0)] = all_five - {ActionKind.REFINE}
    for taken in (1, 2, 3):
        expected[(False, taken)] = all_five
    expected[(False, 4)] = frozenset({TERM})

    for (answered, taken), want in expected.items():
        got = legal_action_set(answered, taken, max_actions=5)
        assert got == want, (
            f"answered={answered} taken={taken}: got {sorted(a.name for a in got)}"
        )

    assert ActionKind.REFINE not in legal_action_set(False, 0)
    assert legal_action_set(False, 4) == frozenset({TERM})
    assert legal_action_set(True, 2) == frozenset({TERM})


def test_criterion_06_synthetic_convergence():
    """With default hyperparameters, 3000 training episodes on the planted
    8-state testbed reach at least 0.95 of the value-iteration optimum on at
    least 4 of 5 seeds, in under 2 minutes total."""
    start = time.perf_counter()
    mdp = synthetic.make_scripted(n_states=8, sharpness=0.7, seed=0)
    ratios = []
    passed = 0
    for seed in range(5):
        cfg = TrainerConfig(seed=seed)
        oracle = synthetic.optimal_return(mdp, cfg.gamma).value
        net, _stats = run_training(synthetic.make_env_factory(mdp), cfg)
        ratio = synthetic.greedy_return(mdp, net, cfg.gamma) / oracle
        ratios.append(round(ratio, 4))
        passed += int(ratio >= 0.95)
    elapsed = time.perf_counter() - start
    assert passed >= 4, f"only {passed}/5 seeds reached 0.95 of optimal: {ratios}"
    assert elapsed < 120.0, f"synthetic training took {elapsed:.1f}s (budget 120s)"


NUMERIC_POOLS = (("7", "7.0", "07"), ("8",), ("1/2", "0.5"), ("-3", "-3.0"), ("12",))
CHOICE_POOLS = (("B", "b"), ("A",), ("C",))
YESNO_POOLS = (("yes", "YES"), ("no", "No"))


def _brute_force_classes(candidates, kind):
    classes = []
    for candidate in candidates:
        for cls in classes:
            if answers_equivalent(candidate, cls[0], kind):
                cls.append(candidate)
                break
        else:
            classes.append([candidate])
    return classes


def test_criterion_07_majority_vote_matches_brute_force():
    """majority_vote agrees with a brute-force multiset majority on 1000
    randomized candidate sets; 0.5 and 1/2 together outvote 0.7."""
    rng = np.random.default_rng(20)
    plans = (
        [(DatasetKind.ELEMENTARY_MATH_NUMERIC, NUMERIC_POOLS)] * 700
        + [(DatasetKind.MULTIPLE_CHOICE, CHOICE_POOLS)] * 150
        + [(DatasetKind.YES_NO, YESNO_POOLS)] * 150
    )
    for trial, (kind, pools) in enumerate(plans):
        candidates = []
        for _ in range(int(rng.integers(1, 10))):
            pool = pools[int(rng.integers(len(pools)))]
            candidates.append(pool[int(rng.integers(len(pool)))])

        classes = _brute_force_classes(candidates, kind)
        best = max(len(cls) for cls in classes)
        tied_reps = [cls[0] for cls in classes if len(cls) == best]

        result = majority_vote(candidates, kind, seed=trial)
        if len(tied_reps) == 1:
            assert result.winner == tied_reps[0]
            assert not result.tie_broken
        else:
            assert result.winner in tied_reps
            assert result.tie_broken
        assert majority_vote(candidates, kind, seed=trial).winner == result.winner

    half = majority_vote(
        ["0.5", "0.7", "1/2"], DatasetKind.ELEMENTARY_MATH_NUMERIC, seed=0
    )
    assert half.winner == "0.5"
    assert not half.tie_broken


def _pipeline_config(tmp_path):
    doc = {
        "seed": 0,
        "gateway": {
            "backend": "scripted",
            "rules": [
                {"contains": r.contains, "response": r.response}
                for r in standard_rules()
            ],
        },
        "prm": {"backend": "scripted", "default": 0.5},
        "trainer": {"batch_size": 16, "buffer_capacity": 64, "widths": [8, 6]},
    }
    path = tmp_path / "pipeline_config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _five_question_dataset(tmp_path):
    records = [
        QuestionRecord(
            id="q1", question="What is 3 + 4?", answer="7",
            kind=DatasetKind.ELEMENTARY_MATH_NUMERIC,
        ),
        QuestionRecord(
            id="q2", question="What is 3 + 4, minus nothing?", answer="9",
            kind=DatasetKind.ELEMENTARY_MATH_NUMERIC,
        ),
        QuestionRecord(
            id="q3", question="Simplify 14/7.", answer="2",
            kind=DatasetKind.MATH_BOXED,
        ),
        QuestionRecord(
            id="q4", question="Pick the sum of 3 and 4: (A) 6 (B) 7 (C) 8.",
            answer="B", kind=DatasetKind.MULTIPLE_CHOICE,
        ),
        QuestionRecord(
            id="q5", question="Is 7 even?", answer="no", kind=DatasetKind.YES_NO,
        ),
    ]
    path = tmp_path / "five.jsonl"
    save_dataset(records, path)
    return str(path)


def test_criterion_08_pipeline_determinism(tmp_path):
    """A scripted mine -> train (20 episodes) -> eval (5 questions) pipeline
    writes byte-identical artifacts across two executions, in under 30 s."""
    start = time.perf_counter()
    cfg = _pipeline_config(tmp_path)
    data = _five_question_dataset(tmp_path)

    def run(tag):
        base = tmp_path / tag
        mine_out, train_out, eval_out = base / "mine", base / "train", base / "eval"
        code = cli.main(
            ["mine-hard", "--config", cfg, "--dataset", data, "--out-dir", str(mine_out)]
        )
        assert code == 0
        code = cli.main(
            [
                "train", "--config", cfg,
                "--hard-set", str(mine_out / "hard_set.jsonl"),
                "--episodes", "20", "--out-dir", str(train_out),
            ]
        )
        assert code == 0
        code = cli.main(
            [
                "eval", "--config", cfg, "--dataset", data,
                "--policy", "nav",
                "--checkpoint", str(train_out / "checkpoint_final.json"),
                "--trials", "3", "--out-dir", str(eval_out),
            ]
        )
        assert code == 0
        return base

    run_a = run("run_a")
    run_b = run("run_b")

    for rel in (
        "mine/hard_set.jsonl",
        "mine/mining_summary.json",
        "train/reward_curve.tsv",
        "train/checkpoint_final.json",
        "train/usage.json",
        "eval/report.json",
    ):
        assert (run_a / rel).read_bytes() == (run_b / rel).read_bytes(), (
            f"{rel} differs between identical runs"
        )

    # sanity on the content: 3 of 5 mined as hard, all 5 evaluated
    assert len((run_a / "mine/hard_set.jsonl").read_text().splitlines()) == 3
    report = json.loads((run_a / "eval/report.json").read_text())
    assert report["total"] == 5

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"pipeline took {elapsed:.1f}s (budget 30s)"


def test_criterion_09_block_pipeline_call_counts():
    """Decompose with k subtasks makes exactly k+2 chat calls and appends only
    the summary; Debate makes exactly 3 and appends only the final step."""
    chat = ScriptedChatBackend(standard_rules())
    prm = ScriptedPrm(default=0.5)
    cfg = EnvConfig()
    ctx, state, _ = env.reset(
        "What is 3 + 4?", DatasetKind.ELEMENTARY_MATH_NUMERIC, chat, cfg
    )

    decompose = env.step(ctx, state, ActionKind.DECOMPOSE, chat, prm, cfg)
    stages = [c.stage for c in block_calls(decompose)]
    k = stages.count("decompose_execute")
    assert k == 2  # the scripted split plants two subtasks
    assert len(block_calls(decompose)) == k + 2
    assert stages == [
        "decompose_split",
        "decompose_execute",
        "decompose_execute",
        "decompose_summary",
    ]
    assert decompose.ctx.steps == ctx.steps + ("The sum of 3 and 4 is 7.",)

    debate = env.step(decompose.ctx, decompose.state, ActionKind.DEBATE, chat, prm, cfg)
    assert len(block_calls(debate)) == 3
    assert [c.stage for c in block_calls(debate)] == [
        "debate_plans",
        "debate_choice",
        "debate_execute",
    ]
    assert debate.ctx.steps == decompose.ctx.steps + ("Counting up from 3 by 4 gives 7.",)


MATH = DatasetKind.MATH_BOXED
NUM = DatasetKind.ELEMENTARY_MATH_NUMERIC
CHOICE = DatasetKind.MULTIPLE_CHOICE
YESNO = DatasetKind.YES_NO

EXTRACTION_CASES = (
    (MATH, "So we get \\boxed{42}.", "42"),
    (MATH, "final: boxed{17}", "17"),
    (MATH, "first \\boxed{1}, then \\boxed{2}", "2"),
    (MATH, "\\boxed{\\boxed{7}}", "7"),
    (MATH, "\\boxed{\\frac{3}{4}}", "\\frac{3}{4}"),
    (MATH, "\\boxed{-3.5} is the area", "-3.5"),
    (MATH, "keeps inner braces: \\boxed{a{b}c}", "a{b}c"),
    (MATH, "\\boxed{42", None),
    (MATH, "the result is 42", None),
    (MATH, "", None),
    (NUM, "The answer is 7.", "7"),
    (NUM, "the answer is -2.5", "-2.5"),
    (NUM, "The answer is $1,736.", "1,736"),
    (NUM, "The answer is 3/4.", "3/4"),
    (NUM, "the answer is: 12", "12"),
    (NUM, "The answer is 8. Wait, the answer is 9.", "9"),
    (NUM, "The answer is 0.08, give or take.", "0.08"),
    (NUM, "we compute 3+4=7", None),
    (NUM, "The answer is seven.", None),
    (NUM, "", None),
    (CHOICE, "The answer is (B).", "B"),
    (CHOICE, "so the answer is c", "C"),
    (CHOICE, "The answer is (a", "A"),
    (CHOICE, "The answer is (A). On reflection, the answer is (D).", "D"),
    (CHOICE, "The answer is (E).", "E"),
    (CHOICE, "the answer is b, final.", "B"),
    (CHOICE, "The answer is Boston.", None),
    (CHOICE, "The answer is (Z).", None),
    (CHOICE, "no letter anywhere", None),
    (CHOICE, "", None),
    (YESNO, "The answer is YES.", "yes"),
    (YESNO, "The answer is no!", "no"),
    (YESNO, "The answer is yes. Hmm, the answer is no.", "no"),
    (YESNO, "Let me check.\n\nNO", "no"),
    (YESNO, "YES", "yes"),
    (YESNO, "yes this is tricky\nfinal word: no", "no"),
    (YESNO, "Yesterday we did nothing", None),
    (YESNO, "maybe", None),
    (YESNO, "The yessiest of days", None),
    (YESNO, "", None),
)


def test_criterion_10_extraction_fixture_corpus():
    """All four answer formats extract correctly on a 40-case corpus, ten per
    format, including last-occurrence-wins and no-marker cases."""
    assert len(EXTRACTION_CASES) == 40
    per_kind = {}
    for kind, text, expected in EXTRACTION_CASES:
        per_kind[kind] = per_kind.get(kind, 0) + 1
        got = extract_answer(text, kind)
        assert got == expected, f"{kind.value}: {text!r} -> {got!r}, wanted {expected!r}"
    assert set(per_kind.values()) == {10}


_SMOKE_QUESTIONS = (
    ("A baker sells 14 muffins in the morning and twice as many in the afternoon. How many muffins does the baker sell in total?", "42"),
    ("Mia has 3 packs of 12 stickers and gives away 9 stickers. How many stickers does she have left?", "27"),
    ("A train travels 60 miles per hour for 3 hours. How many miles does it travel?", "180"),
    ("Sam buys 4 notebooks at 3 dollars each and pays with a 20 dollar bill. How many dollars of change does Sam get?", "8"),
    ("A farm has 15 cows and 4 times as many chickens. How many animals are on the farm in total?", "75"),
    ("Lena reads 25 pages a day for 6 days. How many pages does she read altogether?", "150"),
    ("A jar holds 48 marbles split equally among 6 children. How many marbles does each child get?", "8"),
    ("Tom walks 2 miles to school and back every weekday. How many miles does he walk in 5 days?", "20"),
    ("A shelf holds 9 rows of 7 books. How many books fit on the shelf?", "63"),
    ("Priya saves 5 dollars a week for 8 weeks and then spends 12 dollars. How many dollars does she have left?", "28"),
)


@pytest.mark.skipif(
    not (os.environ.get("QNAV_SMOKE_BASE_URL") and os.environ.get("QNAV_SMOKE_MODEL")),
    reason="live smoke test needs QNAV_SMOKE_BASE_URL and QNAV_SMOKE_MODEL",
)
def test_criterion_11_live_endpoint_smoke():
    """Ten word problems through a real endpoint complete without protocol
    errors and produce token totals; no accuracy is asserted."""
    questions = [
        QuestionRecord(
            id=f"smoke{i}", question=q, answer=a,
            kind=DatasetKind.ELEMENTARY_MATH_NUMERIC,
        )
        for i, (q, a) in enumerate(_SMOKE_QUESTIONS)
    ]
    backend = OpenAIChatBackend(
        WireConfig(
            base_url=os.environ["QNAV_SMOKE_BASE_URL"],
            model=os.environ["QNAV_SMOKE_MODEL"],
            api_key_env=os.environ.get("QNAV_SMOKE_API_KEY_ENV", "QNAV_API_KEY"),
        )
    )
    usage = UsageLog()
    result = mine_hard(questions, backend, usage_log=usage)
    assert result.total == 10
    assert not result.undetermined, f"gateway failures on {sorted(result.undetermined)}"
    assert usage.calls == 10
    totals = usage.totals()
    assert totals.input_tokens >= 0
    assert totals.output_tokens >= 0
