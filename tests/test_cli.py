import importlib
import inspect
import json
import math
import os
import pkgutil
import shutil
import struct

import numpy as np
import pytest

import mixpretrain
from mixpretrain import InputError, ablate
from mixpretrain.ablate import (
    GRIDS,
    TABLE1,
    TABLE2,
    easy_hard_matrix,
    run_grid,
    variant_config,
    variant_metrics,
    write_easy_hard_csv,
)
from mixpretrain.cli import build_parser, main
from mixpretrain.config import (
    default_config_text,
    load_run_config,
    parse_run_config,
    render_config,
)
from mixpretrain.corpus import ConfigError, save_corpus, synth_corpus
from mixpretrain.gradcheck import (
    CASES,
    TOLERANCE,
    finite_difference_check,
    gradcheck_suite,
)
from mixpretrain.runner import (
    run_complete,
    run_training,
    split_image_ids,
)

MICRO_INI = """
[run]
seed = 3
out = {out}
eval_split = 0.2
[corpus]
n_images = 36
grid = 2
cell = 4
[tasks]
kinds = caption oa_exists oa_list
count_per_kind = 40
[schedule]
total_steps = 25
batch_size = 4
[model]
d_model = 16
n_heads = 2
n_encoder_layers = 1
n_decoder_layers = 1
d_ff = 32
patch = 4
max_prompt = 16
max_target = 8
[train]
eval_count_per_kind = 5
"""


def micro_cfg(out):
    return parse_run_config(MICRO_INI.format(out=out))


# ---------------------------------------------------------------------------
# config file handling

def test_default_config_parses():
    cfg = parse_run_config(default_config_text())
    assert len(cfg.kinds) == 8
    assert cfg.eval_split == 0.2
    assert cfg.image_size == 24


def test_config_round_trip():
    # render -> parse is a fixed point for every config a run can be given
    base = micro_cfg("/tmp/x")
    cfgs = [parse_run_config(default_config_text()), base, micro_cfg("/tmp/100%")]
    cfgs += [variant_config(base, n, k, p, 0, "/tmp/g", ablate.OA_QUESTIONS) for n, k, p in TABLE1]
    for cfg in cfgs:
        text = render_config(cfg)
        again = parse_run_config(text)
        assert again.to_dict() == cfg.to_dict()
        assert render_config(again) == text


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="troin"):
        parse_run_config("[troin]\nlr = 1\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="n_layer"):
        parse_run_config("[model]\nn_layer = 3\n")


def test_bad_value_type_rejected():
    with pytest.raises(ConfigError, match="total_steps"):
        parse_run_config("[schedule]\ntotal_steps = many\n")
    with pytest.raises(ConfigError, match=r"\[mixture\] weights"):
        parse_run_config("[mixture]\nweights = 1 x 1\n")


@pytest.mark.parametrize("section, key, value", [
    ("train", "eval_batch", 0),
    ("train", "eval_count_per_kind", 0),
    ("tasks", "count_per_kind", 0),
    ("schedule", "total_steps", 0),
    ("corpus", "n_images", -3),
    ("run", "seed", -1),
    ("train", "checkpoint_every", -1),
])
def test_int_key_below_its_minimum_rejected(section, key, value, tmp_path, capsys):
    lo = 0 if key in ("seed", "checkpoint_every") else 1
    message = f"[{section}] {key} must be >= {lo}, got {value}"
    sections = {"run": f"out = {tmp_path / 'run'}\n"}
    sections[section] = sections.get(section, "") + f"{key} = {value}\n"
    ini = tmp_path / "run.ini"
    ini.write_text("".join(f"[{name}]\n{body}" for name, body in sections.items()))
    assert main(["train", "--config", str(ini)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not os.path.exists(tmp_path / "run")
    parse_run_config(f"[{section}]\n{key} = {lo}\n")


def test_bad_kind_rejected():
    with pytest.raises(ConfigError, match="oa_exits"):
        parse_run_config("[tasks]\nkinds = caption oa_exits\n")


def test_bad_policy_rejected():
    with pytest.raises(ConfigError):
        parse_run_config("[tasks]\npolicy = brutal\n")


def test_weight_length_mismatch_rejected():
    with pytest.raises(ConfigError, match="weights"):
        parse_run_config("[tasks]\nkinds = caption itm\n[mixture]\nweights = 1 2 3\n")


def test_patch_divisibility_checked():
    with pytest.raises(ConfigError, match="patch"):
        parse_run_config("[corpus]\ngrid = 3\ncell = 5\n[model]\npatch = 8\n")


def test_eval_kinds_validated():
    with pytest.raises(ConfigError, match="bogus"):
        parse_run_config("[train]\neval_kinds = bogus\n")


def test_comments_and_blank_weights_ok():
    cfg = parse_run_config("[run]\nseed = 9  # lucky\n[mixture]\nweights =\n")
    assert cfg.seed == 9
    assert cfg.weights == []


# ---------------------------------------------------------------------------
# image-level split

def test_split_deterministic_and_disjoint():
    ids = [f"im{i}" for i in range(50)]
    a_train, a_eval = split_image_ids(ids, 0.2, seed=1)
    b_train, b_eval = split_image_ids(list(reversed(ids)), 0.2, seed=1)
    assert a_train == b_train and a_eval == b_eval
    assert not (set(a_train) & set(a_eval))
    assert len(a_eval) == 10
    assert sorted(a_train + a_eval) == sorted(ids)


def test_split_seed_changes_membership():
    ids = [f"im{i}" for i in range(50)]
    _, e1 = split_image_ids(ids, 0.2, seed=1)
    _, e2 = split_image_ids(ids, 0.2, seed=2)
    assert e1 != e2


def test_split_zero_fraction():
    ids = ["a", "b", "c"]
    train, ev = split_image_ids(ids, 0.0, seed=0)
    assert train == ids and ev == []


def test_split_never_consumes_all():
    train, ev = split_image_ids(["a", "b", "c"], 0.9, seed=0)
    assert len(train) >= 1 and len(ev) >= 1


# ---------------------------------------------------------------------------
# single-run pipeline

@pytest.fixture(scope="module")
def micro_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("runs") / "r1")
    cfg = micro_cfg(out)
    summary = run_training(cfg)
    return cfg, summary


def test_run_writes_artifacts(micro_run):
    cfg, summary = micro_run
    for name in ("config.ini", "vocab.json", "checkpoint.mpt", "metrics.jsonl",
                 "eval.json", "predictions.jsonl", "run.json"):
        assert os.path.exists(os.path.join(cfg.out, name)), name
    assert os.path.exists(os.path.join(cfg.out, "tasks", "caption.easy.jsonl"))
    assert summary["final_loss"] is not None
    assert "eval" in summary


def test_run_config_echo_byte_equal(micro_run):
    cfg, _ = micro_run
    with open(os.path.join(cfg.out, "config.ini")) as f:
        assert f.read() == cfg.source_text


def test_run_metrics_cover_every_step(micro_run):
    cfg, _ = micro_run
    with open(os.path.join(cfg.out, "metrics.jsonl")) as f:
        rows = [json.loads(l) for l in f if l.strip()]
    assert [r["step"] for r in rows] == list(range(25))
    assert set(r["task"] for r in rows) <= {"caption", "oa_exists", "oa_list"}


def test_run_metrics_log_gradient_norm_and_truncation(micro_run):
    cfg, _ = micro_run
    with open(os.path.join(cfg.out, "metrics.jsonl")) as f:
        rows = [json.loads(l) for l in f if l.strip()]
    assert all(set(r) == {"step", "task", "loss", "grad_norm", "truncated"} for r in rows)
    assert all(math.isfinite(r["grad_norm"]) and r["grad_norm"] > 0 for r in rows)
    assert all(isinstance(r["truncated"], int) and 0 <= r["truncated"] <= 4 for r in rows)


def test_run_complete_detects_state(micro_run, tmp_path):
    cfg, _ = micro_run
    assert run_complete(cfg.out, cfg.source_text)
    assert not run_complete(cfg.out, cfg.source_text + "\n# drift")
    assert not run_complete(str(tmp_path / "nowhere"), cfg.source_text)


def test_run_deterministic_across_directories(micro_run, tmp_path):
    cfg, _ = micro_run
    cfg2 = micro_cfg(str(tmp_path / "r2"))
    run_training(cfg2)
    for name in ("metrics.jsonl", "eval.json", "vocab.json"):
        with open(os.path.join(cfg.out, name), "rb") as a, \
             open(os.path.join(cfg2.out, name), "rb") as b:
            assert a.read() == b.read(), name


def test_run_json_reports_stage_seconds(micro_run):
    cfg, summary = micro_run
    with open(os.path.join(cfg.out, "run.json")) as f:
        stored = json.load(f)
    stages = stored["stage_seconds"]
    assert set(stages) == {"corpus", "tasks", "vocab", "train", "eval"}
    assert all(v >= 0 for v in stages.values())
    # each stage is rounded to the millisecond; the float sum of such values
    # may overshoot the rounded total by far less than a microsecond
    assert sum(stages.values()) <= stored["wall_seconds"] + 1e-9
    assert stages == summary["stage_seconds"]
    assert stored["steps_per_second"] == round(25 / stages["train"], 3)


def test_resume_of_finished_run_is_stable(micro_run):
    cfg, _ = micro_run
    ckpt = os.path.join(cfg.out, "checkpoint.mpt")
    with open(ckpt, "rb") as f:
        before = f.read()
    run_training(cfg, resume=True)
    with open(ckpt, "rb") as f:
        assert f.read() == before


def test_resume_after_crash_logs_each_step_once(micro_run, tmp_path, monkeypatch):
    from mixpretrain import model as M
    from mixpretrain.model import TrainingError

    out = str(tmp_path / "crashed")
    ini = tmp_path / "run.ini"
    ini.write_text(MICRO_INI.format(out=out).replace("[train]\n", "[train]\ncheckpoint_every = 10\n"))
    real = M.adam_step
    steps = []

    def crash_at_15(params, state):
        if len(steps) == 15:
            raise TrainingError("simulated crash at step 15")
        steps.append(state.step)
        return real(params, state)

    with monkeypatch.context() as mp:
        mp.setattr(M, "adam_step", crash_at_15)
        assert main(["train", "--config", str(ini)]) == 3
    with open(os.path.join(out, "metrics.jsonl")) as f:
        assert len(f.readlines()) == 15
    assert main(["train", "--config", str(ini), "--resume"]) == 0
    with open(os.path.join(out, "metrics.jsonl")) as f:
        resumed = f.read()
    assert [json.loads(line)["step"] for line in resumed.splitlines()] == list(range(25))
    cfg, _ = micro_run  # the same run without the crash logs the same bytes
    with open(os.path.join(cfg.out, "metrics.jsonl")) as f:
        assert resumed == f.read()



def _copy_of_run(micro_run, tmp_path, old="", new=""):
    """A copy of the finished micro run, and a run config for the copy with
    ``old`` replaced by ``new``."""
    cfg, _ = micro_run
    out = str(tmp_path / "run")
    shutil.copytree(cfg.out, out)
    ini = tmp_path / "run.ini"
    ini.write_text(MICRO_INI.format(out=out).replace(old, new))
    return out, ini


def test_interrupted_rerun_leaves_no_old_results(micro_run, tmp_path, monkeypatch):
    from mixpretrain import model as M
    from mixpretrain.model import TrainingError

    out, ini = _copy_of_run(micro_run, tmp_path, "total_steps = 25", "total_steps = 30")
    real = M.adam_step
    steps = []

    def crash_at_3(params, state):
        if len(steps) == 3:
            raise TrainingError("simulated crash at step 3")
        steps.append(state.step)
        return real(params, state)

    monkeypatch.setattr(M, "adam_step", crash_at_3)
    assert main(["train", "--config", str(ini)]) == 3
    assert not run_complete(out, ini.read_text())
    for name in ("eval.json", "predictions.jsonl", "run.json"):
        assert not os.path.exists(os.path.join(out, name)), name


@pytest.mark.parametrize("old, new, named", [
    ("d_ff = 32", "d_ff = 48", "model config (d_ff 32 -> 48)"),
    ("n_images = 36", "n_images = 40", "corpus"),
    ("kinds = caption oa_exists oa_list", "kinds = caption oa_exists", "vocab"),
], ids=["model", "corpus", "vocab"])
def test_resume_refuses_checkpoint_of_another_config(micro_run, tmp_path, capsys, old, new, named):
    out, ini = _copy_of_run(micro_run, tmp_path, old, new)
    before = _dir_bytes(out)
    assert main(["train", "--config", str(ini), "--resume"]) == 2
    err = capsys.readouterr().err
    assert "checkpoint does not match this run" in err and named in err
    assert "Traceback" not in err
    # refused before anything in the run directory changed
    assert _dir_bytes(out) == before


@pytest.mark.parametrize("old, new, argv, section", [
    ("n_heads = 2", "n_heads = 3", [], "[model]"),
    ("[train]\n", "[mixture]\nweights = 0 1 1\n[train]\n", [], "[mixture]"),
    ("", "", ["--seed", "-1"], "[run]"),
    ("[tasks]\n", "[tasks]\nyes_no_balance = 1.5\n", [], "[tasks]"),
    ("kinds = caption oa_exists oa_list", "kinds = caption caption", [], "[tasks]"),
    ("kinds = caption oa_exists oa_list", "kinds =", [], "[tasks]"),
    ("grid = 2", "grid = 1", [], "[corpus]"),
    ("[corpus]\n", "[corpus]\nhidden_rate = 1.5\n", [], "[corpus]"),
], ids=["n_heads", "zero_weight", "negative_seed", "yes_no_balance", "repeated_kind",
        "no_kinds", "grid_1", "hidden_rate"])
def test_config_refused_before_anything_runs(micro_run, tmp_path, capsys, monkeypatch,
                                             old, new, argv, section):
    def no_synthesis(*args, **kwargs):
        raise AssertionError("corpus synthesized for a refused config")

    monkeypatch.setattr("mixpretrain.runner.synth_corpus", no_synthesis)
    out, ini = _copy_of_run(micro_run, tmp_path, old, new)
    before = _dir_bytes(out)
    fresh = tmp_path / "fresh"
    for extra in ([], ["--out", str(fresh)]):
        assert main(["train", "--config", str(ini), *argv, *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {section} ") and "Traceback" not in err
    assert _dir_bytes(out) == before
    assert not os.path.exists(fresh)


def _dir_bytes(root):
    """Relative path -> bytes of every file under ``root``."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = f.read()
    return out


def _assert_tasks_match_manifest(out):
    """``tasks/`` holds the manifest and one file per kind it counts, and
    no staging directory is left beside it."""
    tasks = os.path.join(out, "tasks")
    with open(os.path.join(tasks, "synth_manifest.json")) as f:
        manifest = json.load(f)
    expected = {f"{kind}.{manifest['policy']}.jsonl" for kind in manifest["counts"]}
    assert set(os.listdir(tasks)) == expected | {"synth_manifest.json"}
    assert not os.path.exists(tasks + ".tmp")
    return manifest


def test_rerun_with_fewer_kinds_leaves_no_stray_task_file(micro_run, tmp_path):
    out, ini = _copy_of_run(micro_run, tmp_path, "kinds = caption oa_exists oa_list",
                            "kinds = caption oa_exists")
    assert main(["train", "--config", str(ini)]) == 0
    assert set(_assert_tasks_match_manifest(out)["counts"]) == {"caption", "oa_exists"}


def test_failed_setup_leaves_run_directory_unchanged(micro_run, tmp_path, capsys, monkeypatch):
    out, ini = _copy_of_run(micro_run, tmp_path, "total_steps = 25", "total_steps = 30")
    before = _dir_bytes(out)

    def broken_vocab(examples):
        raise ConfigError("simulated set-up failure after synthesis")

    monkeypatch.setattr("mixpretrain.runner.build_vocab", broken_vocab)
    assert main(["train", "--config", str(ini)]) == 2
    assert "simulated set-up failure" in capsys.readouterr().err
    assert _dir_bytes(out) == before
    assert not os.path.exists(os.path.join(out, "tasks.tmp"))


def test_run_clears_a_staging_directory_left_by_a_killed_run(micro_run, tmp_path):
    out, ini = _copy_of_run(micro_run, tmp_path)
    staging = os.path.join(out, "tasks.tmp")
    os.makedirs(staging)
    with open(os.path.join(staging, "oa_which.easy.jsonl"), "w") as f:
        f.write('{"partial')
    assert main(["train", "--config", str(ini)]) == 0
    _assert_tasks_match_manifest(out)


def test_eval_refuses_tampered_vocab(micro_run, tmp_path, capsys):
    out, _ = _copy_of_run(micro_run, tmp_path)
    path = os.path.join(out, "vocab.json")
    with open(path) as f:
        tokens = json.load(f)
    tokens[-1], tokens[-2] = tokens[-2], tokens[-1]
    with open(path, "w") as f:
        json.dump(tokens, f)
    assert main(["eval", "--run", out]) == 2
    err = capsys.readouterr().err
    assert "checkpoint does not match this run: vocab differ" in err


def _edit_checkpoint_header(edit):
    """A tampering of a checkpoint: ``edit`` changes its JSON header, and
    the payload and its digest stay."""
    def tamper(path):
        with open(path, "rb") as f:
            blob = f.read()
        (hlen,) = struct.unpack("<I", blob[4:8])
        header = json.loads(blob[8:8 + hlen])
        edit(header)
        hb = json.dumps(header).encode()
        with open(path, "wb") as f:
            f.write(blob[:4] + struct.pack("<I", len(hb)) + hb + blob[8 + hlen:])
    return tamper


def _write(content):
    def tamper(path):
        with open(path, "wb") as f:
            f.write(content)
    return tamper


def _repeat_a_vocab_token(path):
    with open(path) as f:
        tokens = json.load(f)
    _write(json.dumps(tokens + tokens[-1:]).encode())(path)


@pytest.mark.parametrize("name, tamper", [
    ("vocab.json", _write(b"[not json")),
    ("vocab.json", _write(b'{"a": 1}')),
    ("vocab.json", _write(b'["<pad>", "<eos>", "<unk>", "dog"]')),
    ("vocab.json", _repeat_a_vocab_token),
    ("checkpoint.mpt", _write(b"MPT1\x05")),
    ("checkpoint.mpt", _edit_checkpoint_header(lambda h: h.pop("payload_sha256"))),
    ("checkpoint.mpt", _edit_checkpoint_header(lambda h: h.pop("optimizer"))),
    ("checkpoint.mpt", _edit_checkpoint_header(lambda h: h["config"].update(n_layers=2))),
    ("checkpoint.mpt", _edit_checkpoint_header(lambda h: h["config"].update(n_heads=3))),
    ("checkpoint.mpt", _edit_checkpoint_header(lambda h: h["config"].update(n_heads=0))),
    ("checkpoint.mpt", _edit_checkpoint_header(lambda h: h["arrays"][0].update(shape=[999, 999]))),
    ("checkpoint.mpt", _edit_checkpoint_header(lambda h: h["arrays"][0].update(shape="x"))),
], ids=["vocab-not-json", "vocab-object", "vocab-no-specials", "vocab-repeated",
        "ckpt-short", "ckpt-no-digest", "ckpt-no-optimizer",
        "ckpt-unknown-config-key", "ckpt-n_heads-3", "ckpt-n_heads-0", "ckpt-shape",
        "ckpt-shape-string"])
def test_eval_refuses_a_corrupt_run_file(micro_run, tmp_path, capsys, name, tamper):
    out, _ = _copy_of_run(micro_run, tmp_path)
    path = os.path.join(out, name)
    tamper(path)
    before = _dir_bytes(out)
    assert main(["eval", "--run", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and path in err and "Traceback" not in err
    assert _dir_bytes(out) == before


def test_resume_refuses_a_corrupt_metrics_line(micro_run, tmp_path, capsys):
    out, ini = _copy_of_run(micro_run, tmp_path)
    path = os.path.join(out, "metrics.jsonl")
    with open(path) as f:
        rows = f.readlines()
    rows[4] = '{"step": 4, "loss"\n'
    with open(path, "w") as f:
        f.writelines(rows)
    before = _dir_bytes(out)
    assert main(["train", "--config", str(ini), "--resume"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}:5: not a step record")
    assert _dir_bytes(out) == before


def test_resume_refuses_a_checkpoint_without_an_array_of_the_model(micro_run, tmp_path, capsys):
    out, ini = _copy_of_run(micro_run, tmp_path)
    _edit_checkpoint_header(lambda h: h["arrays"][0].update(name="renamed"))(
        os.path.join(out, "checkpoint.mpt"))
    before = _dir_bytes(out)
    assert main(["train", "--config", str(ini), "--resume"]) == 2
    assert capsys.readouterr().err.startswith("error: checkpoint missing array ")
    assert _dir_bytes(out) == before


def test_resume_drops_a_partial_last_metrics_line(micro_run, tmp_path):
    out, ini = _copy_of_run(micro_run, tmp_path)
    path = os.path.join(out, "metrics.jsonl")
    with open(path, "rb") as f:
        logged = f.read()
    with open(os.path.join(out, "run.json")) as f:
        final_loss = json.load(f)["final_loss"]
    with open(path, "a") as f:
        f.write('{"step": 25, "lo')
    assert main(["train", "--config", str(ini), "--resume"]) == 0
    with open(path, "rb") as f:
        assert f.read() == logged
    with open(os.path.join(out, "run.json")) as f:  # no step trained: the loss is the logged one
        assert json.load(f)["final_loss"] == final_loss


def test_train_refuses_a_corpus_of_another_image_size(micro_run, tmp_path, capsys):
    corpus_dir = str(tmp_path / "corpus16")
    save_corpus(synth_corpus(seed=0, n_images=40, grid=2, cell=8), corpus_dir)
    out, ini = _copy_of_run(micro_run, tmp_path, "[corpus]\n",
                            f"[corpus]\nsource = dir\ndir = {corpus_dir}\n")
    shutil.copy(ini, os.path.join(out, "config.ini"))  # the config eval reads
    before = _dir_bytes(out)
    for argv in (["train", "--config", str(ini)], ["eval", "--run", out]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: corpus {corpus_dir}: ")
        assert "(16, 16, 3)" in err and "(8, 8, 3)" in err and "Traceback" not in err
        assert _dir_bytes(out) == before


# ---------------------------------------------------------------------------
# the fault contract: InputError and OSError exit 2, runtime faults 3, and
# anything else is a bug that keeps its traceback

RUNTIME = (mixpretrain.model.TrainingError, mixpretrain.nnkernel.OptimizerError)
INTERNAL = (mixpretrain.nnkernel.ShapeError, mixpretrain.tasksynth.NoNounFound)


def test_every_exception_class_is_input_runtime_or_internal():
    classes = set()
    for info in pkgutil.iter_modules(mixpretrain.__path__):
        module = importlib.import_module(f"mixpretrain.{info.name}")
        classes |= {c for _, c in inspect.getmembers(module, inspect.isclass)
                    if issubclass(c, BaseException) and c.__module__.startswith("mixpretrain")}
    assert mixpretrain.corpus.ConfigError in classes and len(classes) >= 13
    for cls in classes:
        kinds = [issubclass(cls, InputError), issubclass(cls, RUNTIME), cls in INTERNAL]
        assert kinds.count(True) == 1, cls


def test_an_internal_error_keeps_its_traceback(micro_run, tmp_path, monkeypatch):
    out, ini = _copy_of_run(micro_run, tmp_path)

    def broken_train(*args, **kwargs):
        raise ValueError("simulated internal bug")

    monkeypatch.setattr("mixpretrain.runner.train", broken_train)
    with pytest.raises(ValueError, match="simulated internal bug"):
        main(["train", "--config", str(ini)])


@pytest.mark.parametrize("argv, message", [
    (["gradcheck", "--seed", "-1"], "argument --seed: must be >= 0, got -1"),
    (["synth", "--corpus", "c", "--count", "-1"], "argument --count: must be >= 1, got -1"),
    (["ablate", "--grid", "paper-table1", "--seeds", "0"], "argument --seeds: must be >= 1, got 0"),
    (["ablate", "--grid", "paper-table1", "--jobs", "0"], "argument --jobs: must be >= 1, got 0"),
], ids=["gradcheck-seed", "synth-count", "ablate-seeds", "ablate-jobs"])
def test_cli_count_flags_have_floors(capsys, argv, message):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    assert message in capsys.readouterr().err


# ---------------------------------------------------------------------------
# gradient suite

def test_gradcheck_suite_kink_seed():
    # seed 2 places a relu pre-activation of the model case within the
    # difference step of zero: without the smaller-step fallback the quotient
    # misses, and with it every case stays below tolerance
    case = CASES["model_d8"]
    make_loss, leaves = case.build(np.random.default_rng(2))
    assert finite_difference_check(make_loss, leaves, n_samples=case.n_samples, seed=2) > TOLERANCE
    worst = gradcheck_suite(seeds=(2,))
    assert list(worst) == list(CASES)
    for name, err in worst.items():
        assert err < TOLERANCE, f"{name}: {err:.3e}"


# ---------------------------------------------------------------------------
# CLI verbs end to end

@pytest.fixture()
def raw_annotations(tmp_path):
    classes = tmp_path / "classes.csv"
    classes.write_text("/m/0bt9lr,Dog\n/m/01yrx,Cat\n/m/0k4j,Car\n")
    labels = tmp_path / "labels.csv"
    labels.write_text(
        "ImageID,Source,LabelName,Confidence\n"
        "im1,human-verification,/m/0bt9lr,1\n"
        "im1,human-verification,/m/01yrx,0\n"
        "im2,machine,/m/0k4j,1\n"
    )
    captions = tmp_path / "captions.jsonl"
    captions.write_text(
        '{"image_id": "im1", "caption": "A dog sits by the car."}\n'
        '{"image_id": "im2", "caption": "a car on the road"}\n'
    )
    return tmp_path, classes, labels, captions


def test_cli_ingest_and_synth(raw_annotations, capsys):
    tmp, classes, labels, captions = raw_annotations
    out = str(tmp / "corpus")
    rc = main(["ingest", "--classes", str(classes), "--labels", str(labels),
               "--captions", str(captions), "--out", out])
    assert rc == 0
    assert "2 images" in capsys.readouterr().out
    tasks = str(tmp / "tasks")
    rc = main(["synth", "--corpus", out, "--kinds", "caption,oa_exists",
               "--count", "3", "--out", tasks])
    assert rc == 0
    assert os.path.exists(os.path.join(tasks, "caption.easy.jsonl"))
    assert os.path.exists(os.path.join(tasks, "synth_manifest.json"))


def test_cli_ingest_counts_dropped_records(raw_annotations, capsys):
    tmp, classes, labels, captions = raw_annotations
    with open(labels, "a") as f:
        f.write("im9,machine,/m/0k4j,1\n")  # im9 has no caption: unknown image
    rc = main(["ingest", "--classes", str(classes), "--labels", str(labels),
               "--captions", str(captions), "--out", str(tmp / "corpus")])
    assert rc == 0
    assert "1 dropped" in capsys.readouterr().out


def test_cli_synth_rerun_identical(raw_annotations, capsys):
    tmp, classes, labels, captions = raw_annotations
    out = str(tmp / "corpus")
    main(["ingest", "--classes", str(classes), "--labels", str(labels),
          "--captions", str(captions), "--out", out])
    t1, t2 = str(tmp / "t1"), str(tmp / "t2")
    assert main(["synth", "--corpus", out, "--count", "3", "--out", t1, "--seed", "7"]) == 0
    assert main(["synth", "--corpus", out, "--count", "3", "--out", t2, "--seed", "7"]) == 0
    capsys.readouterr()
    for name in sorted(os.listdir(t1)):
        with open(os.path.join(t1, name), "rb") as a, open(os.path.join(t2, name), "rb") as b:
            assert a.read() == b.read(), name


def test_cli_ingest_malformed_cites_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("only-one-column\n")
    rc = main(["ingest", "--classes", str(bad), "--out", str(tmp_path / "c")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "bad.csv" in err and "line 1" in err


def test_cli_ingest_missing_file(tmp_path, capsys):
    rc = main(["ingest", "--classes", str(tmp_path / "absent.csv"),
               "--out", str(tmp_path / "c")])
    assert rc == 2


def test_cli_synth_without_captions_names_kind(raw_annotations, capsys):
    tmp, classes, labels, _ = raw_annotations
    out = str(tmp / "nocap")
    main(["ingest", "--classes", str(classes), "--labels", str(labels), "--out", out])
    rc = main(["synth", "--corpus", out, "--kinds", "caption", "--count", "2",
               "--out", str(tmp / "t")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "caption" in err


def test_cli_train_rejects_a_corpus_without_pixels(tmp_path, capsys):
    src = str(tmp_path / "annotations")
    save_corpus(synth_corpus(seed=0, n_images=40, grid=2, cell=4), src)
    corpus_dir = str(tmp_path / "ingested")
    assert main(["ingest", "--classes", os.path.join(src, "class_descriptions.csv"),
                 "--labels", os.path.join(src, "image_labels.csv"),
                 "--captions", os.path.join(src, "captions.jsonl"), "--out", corpus_dir]) == 0
    out = str(tmp_path / "run")
    ini = tmp_path / "run.ini"
    ini.write_text(MICRO_INI.format(out=out).replace(
        "[corpus]\n", f"[corpus]\nsource = dir\ndir = {corpus_dir}\n"))
    capsys.readouterr()
    assert main(["train", "--config", str(ini)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and corpus_dir in err and "pixels" in err
    assert "Traceback" not in err
    assert not os.path.exists(os.path.join(out, "tasks"))  # rejected before synthesis


def test_cli_train_eval_score(tmp_path, capsys):
    out = str(tmp_path / "run")
    ini = tmp_path / "run.ini"
    ini.write_text(MICRO_INI.format(out=out))
    assert main(["train", "--config", str(ini)]) == 0
    # echoed config is byte-equal to the input file
    with open(os.path.join(out, "config.ini")) as f:
        assert f.read() == ini.read_text()
    assert main(["eval", "--run", out]) == 0
    report_path = str(tmp_path / "report.json")
    rc = main(["score", "--predictions", os.path.join(out, "predictions.jsonl"),
               "--truth", _truth_file(tmp_path, out), "--out", report_path])
    assert rc == 0
    assert "overall exact match" in capsys.readouterr().out
    assert json.load(open(report_path))["overall"]["n_items"] > 0


def _truth_file(tmp_path, run_dir):
    """Ground truth matching the run's predictions ids, from its eval report."""
    with open(os.path.join(run_dir, "eval.json")) as f:
        report = json.load(f)
    path = str(tmp_path / "truth.jsonl")
    with open(path, "w") as f:
        for item in report["items"]:
            f.write(json.dumps({"id": item["id"], "answers": [item["prediction"] or "x"],
                                "kind": item["kind"]}) + "\n")
    return path


@pytest.mark.parametrize("bad_file, row, problem", [
    ("predictions", '[1, 2]', "not a JSON object"),
    ("predictions", '{"id": "b"', "not JSON"),
    ("predictions", '{"prediction": "x"}', "missing id"),
    ("predictions", '{"id": "b"}', "missing prediction"),
    ("truth", '"b"', "not a JSON object"),
    ("truth", '{"answers": ["x"]}', "missing id"),
    ("truth", '{"id": "b", "kind": "caption"}', "missing answers"),
    ("truth", '{"id": "b", "answers": "x"}', "answers is not a list"),
    ("predictions", '{"id": "b", "prediction": 3}', "prediction is not a string"),
    ("truth", '{"id": "b", "answers": []}', "answers is empty"),
    ("truth", '{"id": "b", "answers": [1]}', "answers is not a list of strings"),
    ("truth", '{"id": "c", "answers": ["y"]}', "no prediction for id 'c'"),
    ("predictions", '{"id": "a", "prediction": "y"}', "repeated id 'a'"),
], ids=["pred-array", "pred-broken-json", "pred-no-id", "pred-no-prediction",
        "truth-string", "truth-no-id", "truth-no-answers", "truth-answers-string",
        "pred-number", "truth-no-answer", "truth-answer-number", "truth-id-unpredicted",
        "pred-repeated-id"])
def test_cli_score_rejects_a_malformed_row(tmp_path, capsys, bad_file, row, problem):
    files = {"predictions": ['{"id": "a", "prediction": "x"}', '{"id": "b", "prediction": "y"}'],
             "truth": ['{"id": "a", "answers": ["x"]}', '{"id": "b", "answers": ["y"]}']}
    files[bad_file][1] = row
    paths = {}
    for name, rows in files.items():
        paths[name] = str(tmp_path / f"{name}.jsonl")
        with open(paths[name], "w") as f:
            f.write("\n".join(rows) + "\n")
    assert main(["score", "--predictions", paths["predictions"], "--truth", paths["truth"]]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {paths[bad_file]}:2: {problem}")
    assert "Traceback" not in err


def test_cli_score_rejects_an_empty_truth_file(tmp_path, capsys):
    preds, truth = tmp_path / "predictions.jsonl", tmp_path / "truth.jsonl"
    preds.write_text('{"id": "a", "prediction": "x"}\n')
    truth.write_text("\n")
    assert main(["score", "--predictions", str(preds), "--truth", str(truth)]) == 2
    assert capsys.readouterr().err == f"error: {truth}: no ground-truth rows\n"


def test_cli_train_seed_override_regenerates_echo(tmp_path):
    out = str(tmp_path / "run")
    ini = tmp_path / "run.ini"
    ini.write_text(MICRO_INI.format(out=out))
    assert main(["train", "--config", str(ini), "--seed", "5"]) == 0
    cfg = load_run_config(os.path.join(out, "config.ini"))
    assert cfg.seed == 5


def test_cli_init_config(tmp_path, capsys):
    path = str(tmp_path / "starter.ini")
    assert main(["init-config", path]) == 0
    cfg = load_run_config(path)
    assert len(cfg.kinds) == 8
    capsys.readouterr()


# each verb with its required arguments, and the shared-name flags it reads
VERB_ARGS = {
    "ingest": (["--classes", "c.csv"], {"--out"}),
    "synth": (["--corpus", "c"], {"--seed", "--out"}),
    "train": ([], {"--seed", "--out", "--config"}),
    "eval": (["--run", "r"], set()),
    "score": (["--predictions", "p.jsonl", "--truth", "t.jsonl"], {"--out"}),
    "gradcheck": ([], {"--seed"}),
    "ablate": (["--grid", "paper-table1"], {"--out", "--jobs", "--config"}),
    "init-config": ([], {"--seed", "--out"}),
}
FLAG_VALUES = {"--seed": "7", "--out": "o", "--jobs": "2", "--config": "c.ini", "--boxes": "b.csv"}


@pytest.mark.parametrize("verb", sorted(VERB_ARGS))
@pytest.mark.parametrize("flag", sorted(FLAG_VALUES))
def test_cli_verb_takes_only_flags_it_reads(verb, flag, capsys):
    required, reads = VERB_ARGS[verb]
    argv = [verb, *required, flag, FLAG_VALUES[flag]]
    if flag in reads:
        args = build_parser().parse_args(argv)
        assert str(getattr(args, flag[2:])) == FLAG_VALUES[flag]
    else:
        with pytest.raises(SystemExit) as e:
            build_parser().parse_args(argv)
        assert e.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_cli_bad_grid_name(capsys):
    rc = main(["ablate", "--grid", "paper-table9", "--out", "/tmp/nope"])
    assert rc == 2
    assert "paper-table9" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# ablation grids

def test_builtin_grids_shape():
    assert [name for name, _, _ in TABLE1] == [
        "caption_only", "mlm_only", "cm_mix", "cm_mix_hard", "cm_mix_oa_list",
        "oa_234", "cm_mix_oa_234", "cm_mix_oa_mix", "cm_mix_hard_oa_mix",
    ]
    assert len(TABLE2) == 6
    kinds_used = {name for name, kinds, _ in TABLE2 for name in kinds}
    assert kinds_used == {"oa_exists", "oa_andor", "oa_which"}
    assert set(GRIDS) == {"paper-table1", "paper-table2"}


def test_table1_variants_differ_only_in_mixture():
    base = micro_cfg("/tmp/base")
    cfgs = [variant_config(base, n, k, p, 0, "/tmp/g", ["oa_exists"])
            for n, k, p in TABLE1]
    for cfg in cfgs:
        assert cfg.model == base.model
        assert cfg.schedule == base.schedule
        assert cfg.corpus == base.corpus
    assert len({tuple(c.kinds) + (c.tasks["policy"],) for c in cfgs}) == len(cfgs)


def test_variant_metrics_extraction():
    report = {
        "overall": {"exact_match": 0.5, "n_items": 20},
        "per_task": {
            "caption": {"n": 5, "exact_match": 0.0, "cider": 1.25},
            "itm": {"n": 5, "exact_match": 0.6},
            "mlm": {"n": 5, "exact_match": 0.4},
            "oa_exists": {"n": 5, "exact_match": 0.8},
        },
    }
    m = variant_metrics(report)
    assert m["overall_em"] == 0.5
    assert m["cm_em"] == pytest.approx(0.5)
    assert m["oa_em"] == pytest.approx(0.8)
    assert m["caption_cider"] == 1.25
    assert m["em.itm"] == 0.6


@pytest.fixture(scope="module")
def micro_grid(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("grid"))
    base = micro_cfg("unused")
    grid = [("oa_exists_easy", ["oa_exists"], "easy"),
            ("oa_exists_hard", ["oa_exists"], "hard")]
    summary = run_grid(grid, base, out, seeds=(0, 1), jobs=1, eval_kinds=["oa_exists"])
    return out, base, grid, summary


def test_grid_runs_all_cells(micro_grid):
    out, _, grid, summary = micro_grid
    assert len(summary["variants"]) == 2
    for name, v in summary["variants"].items():
        assert v["status"] == "ok"
        assert set(v["seeds"]) == {"0", "1"}
        assert "em.oa_exists" in v["aggregate"]
    for name, _, _ in grid:
        for seed in (0, 1):
            assert os.path.exists(os.path.join(out, name, f"seed{seed}", "eval.json"))
    assert os.path.exists(os.path.join(out, "summary.csv"))
    assert os.path.exists(os.path.join(out, "summary.json"))


def test_grid_reuses_complete_runs(micro_grid):
    out, base, grid, _ = micro_grid
    marker = os.path.join(out, "oa_exists_easy", "seed0", "run.json")
    stamp = os.path.getmtime(marker)
    run_grid(grid, base, out, seeds=(0, 1), jobs=1, eval_kinds=["oa_exists"])
    assert os.path.getmtime(marker) == stamp


def test_grid_parallel_matches_serial(micro_grid, tmp_path):
    out, base, grid, summary = micro_grid
    out2 = str(tmp_path / "par")
    cells = [f"  {name} seed{seed}: done" for name, _, _ in grid for seed in (0, 1)]
    logged = []
    s2 = run_grid(grid, base, out2, seeds=(0, 1), jobs=2, eval_kinds=["oa_exists"],
                  log=logged.append)
    assert s2["variants"]["oa_exists_easy"]["aggregate"] == \
        summary["variants"]["oa_exists_easy"]["aggregate"]
    assert logged[1:] == cells
    # the serial path (reusing the finished runs) logs the same cells
    logged.clear()
    run_grid(grid, base, out2, seeds=(0, 1), jobs=1, eval_kinds=["oa_exists"],
             log=logged.append)
    assert logged[1:] == cells


def test_grid_failed_variant_marks_row(micro_grid, tmp_path, monkeypatch):
    _, base, _, _ = micro_grid
    real = ablate.run_training

    def sabotaged(cfg, *a, **kw):
        if "doomed" in cfg.out:
            raise RuntimeError("boom")
        return real(cfg, *a, **kw)

    monkeypatch.setattr(ablate, "run_training", sabotaged)
    grid = [("doomed", ["oa_exists"], "easy"), ("fine", ["oa_exists"], "easy")]
    out = str(tmp_path / "g")
    summary = run_grid(grid, base, out, seeds=(0,), jobs=1, eval_kinds=["oa_exists"])
    assert summary["variants"]["doomed"]["status"] == "failed"
    assert "boom" in summary["variants"]["doomed"]["seeds"]["0"]["error"]
    assert summary["variants"]["fine"]["status"] == "ok"
    with open(os.path.join(out, "summary.csv")) as f:
        text = f.read()
    assert "doomed" in text and "failed" in text


def test_grid_failed_cell_keeps_its_traceback(micro_grid, tmp_path, monkeypatch):
    _, base, _, _ = micro_grid
    real = ablate.run_training
    failures = ["once"]

    def fails_once(cfg, *a, **kw):
        if failures:
            failures.pop()
            raise RuntimeError("boom")
        return real(cfg, *a, **kw)

    monkeypatch.setattr(ablate, "run_training", fails_once)
    grid = [("flaky", ["oa_exists"], "easy")]
    out = str(tmp_path / "g")
    error_path = os.path.join(out, "flaky", "seed0", ablate.ERROR_FILE)
    run_grid(grid, base, out, seeds=(0,), jobs=1, eval_kinds=["oa_exists"])
    with open(os.path.join(out, "summary.json")) as f:
        flaky = json.load(f)["variants"]["flaky"]
    assert flaky["status"] == "failed" and flaky["seeds"]["0"]["error"] == "RuntimeError: boom"
    with open(error_path) as f:
        text = f.read()
    assert text.startswith("Traceback") and "fails_once" in text
    assert text.rstrip().endswith("RuntimeError: boom")

    # the cell completes on the next attempt and the stale traceback goes
    summary = run_grid(grid, base, out, seeds=(0,), jobs=1, eval_kinds=["oa_exists"])
    assert summary["variants"]["flaky"]["status"] == "ok"
    assert not os.path.exists(error_path)


def test_easy_hard_matrix_folding(micro_grid):
    _, _, _, summary = micro_grid
    matrix = easy_hard_matrix(summary["variants"])
    assert set(matrix) == {"oa_exists"}
    assert set(matrix["oa_exists"]) == {"easy", "hard"}
    for cell in matrix["oa_exists"].values():
        assert 0.0 <= cell["mean"] <= 1.0


def test_easy_hard_csv(micro_grid, tmp_path):
    _, _, _, summary = micro_grid
    path = write_easy_hard_csv(easy_hard_matrix(summary["variants"]), str(tmp_path))
    lines = open(path).read().strip().splitlines()
    assert lines[0].startswith("task,easy_mean")
    assert lines[1].startswith("oa_exists,")
