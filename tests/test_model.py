import pytest

from ncchecker import ValidationError, build, load_model, predict_lines, save_model
from ncchecker.model import model_from_text, model_to_text

from conftest import MULTI_LINE, SINGLE5_LINE


def test_model_round_trip_preserves_everything(tmp_path, fig_corpus):
    miner, table = build(fig_corpus)
    path = tmp_path / "model.ncc"
    save_model(path, miner, table)
    loaded_miner, loaded_table = load_model(path)

    assert loaded_miner.frozen
    assert loaded_miner.export_registry() == miner.export_registry()
    assert loaded_miner.config == miner.config
    assert loaded_table.rows == table.rows
    assert loaded_table.kinds == table.kinds
    assert loaded_table.icf == table.icf
    assert loaded_table.n_per_cause == table.n_per_cause


def test_model_round_trip_preserves_predictions(tmp_path, fig_corpus):
    miner, table = build(fig_corpus)
    path = tmp_path / "model.ncc"
    save_model(path, miner, table)
    loaded_miner, loaded_table = load_model(path)
    for log in fig_corpus.failed:
        before, _ = predict_lines(miner, table, log.lines, log.log_id)
        after, _ = predict_lines(loaded_miner, loaded_table, log.lines, log.log_id)
        assert before.cause == after.cause
        assert before.scores == after.scores


def test_model_text_is_deterministic(fig_corpus):
    first = model_to_text(*build(fig_corpus))
    second = model_to_text(*build(fig_corpus))
    assert first == second


def test_model_header_version_check():
    with pytest.raises(ValidationError, match="header"):
        model_from_text("ncc-model v999\n")


def test_model_truncated_section_detected(fig_corpus):
    text = model_to_text(*build(fig_corpus))
    lines = text.splitlines()
    with pytest.raises(ValidationError, match="truncat"):
        model_from_text("\n".join(lines[: len(lines) // 2]))


def test_model_bad_config_named(fig_corpus):
    text = model_to_text(*build(fig_corpus))
    broken = text.replace("config\t{", "config\t{not json ", 1)
    with pytest.raises(ValidationError, match="config"):
        model_from_text(broken)


def test_loaded_model_still_diffs_benign_lines(tmp_path, fig_corpus):
    # The loaded model must treat trained benign lines as known events
    # (not UNKNOWN) that score zero, and flag the real evidence.
    miner, table = build(fig_corpus)
    path = tmp_path / "model.ncc"
    save_model(path, miner, table)
    loaded_miner, loaded_table = load_model(path)
    prediction, events = predict_lines(
        loaded_miner, loaded_table, ["system-view", MULTI_LINE, SINGLE5_LINE], "new"
    )
    assert "<unknown>" not in events.events
    assert prediction.cause == 1
