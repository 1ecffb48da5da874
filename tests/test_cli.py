import json

import pytest

from wallcross import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0, err
    return json.loads(out)


def test_stability_text_report(capsys):
    code, out, err = run(
        capsys, "stability", "--surface", "product", "--u", "5/2,1", "--v", "7/2,1"
    )
    assert code == 0
    assert "verdict: Level(5)" in out
    assert "degrees 1..7" in out


def test_enumerate_del_pezzo_exceptional_count(capsys):
    doc = run_json(
        capsys, "enumerate", "--surface", "blowup:6", "--square", "-1"
    )
    assert doc["count"] == 27
    assert doc["complete"] is True


def test_capacities_equal_balls(capsys):
    doc = run_json(
        capsys, "capacities", "--surface", "blowup:0", "--u", "1", "--balls", "2"
    )
    assert doc["critical_values"] == ["1/2"]
    assert doc["c_max"] == 1


def test_surface_description(capsys):
    code, out, _ = run(capsys, "surface", "--surface", "blowup:3")
    assert code == 0
    assert "rank 4" in out
    doc = run_json(capsys, "surface", "--surface", "product")
    assert doc["surface"] == {"kind": "product"}
    assert doc["canonical_square"] == 8


def test_sets_report_groups_by_square(capsys):
    code, out, _ = run(
        capsys, "sets", "--surface", "product", "--u", "5/2,1",
        "--tier", "cremona_certified",
    )
    assert code == 0
    assert "square -2: B-F [root]" in out
    assert "square -4: B-2F [candidate]" in out


def test_diff_file_mode_matches_direct(capsys, tmp_path):
    common = ("--surface", "product", "--floor", "6")
    doc_a = run_json(capsys, "sets", "--u", "5/2,1", *common)
    doc_b = run_json(capsys, "sets", "--u", "7/2,1", *common)
    fa = tmp_path / "a.json"
    fb = tmp_path / "b.json"
    fa.write_text(json.dumps(doc_a))
    fb.write_text(json.dumps(doc_b))

    via_files = run_json(capsys, "diff", "--sets-a", str(fa), "--sets-b", str(fb))
    direct = run_json(
        capsys, "diff", "--u", "5/2,1", "--v", "7/2,1", *common
    )
    assert via_files["only_u"]["classes"] == direct["only_u"]["classes"]
    assert via_files["only_v"]["classes"] == direct["only_v"]["classes"]
    assert via_files["only_v"]["classes"] == [[1, -3]]


def test_diff_rejects_a_tampered_set_file(capsys, tmp_path):
    common = ("--surface", "product", "--floor", "6")
    doc_a = run_json(capsys, "sets", "--u", "5/2,1", *common)
    doc_b = run_json(capsys, "sets", "--u", "7/2,1", *common)
    doc_a["classes"].append([5, 5])  # square 50, not a sphere class
    fa = tmp_path / "a.json"
    fb = tmp_path / "b.json"
    fa.write_text(json.dumps(doc_a))
    fb.write_text(json.dumps(doc_b))
    code, _, err = run(capsys, "diff", "--sets-a", str(fa), "--sets-b", str(fb))
    assert code == 2
    assert "set member 5B+5F" in err


def test_diff_rejects_mixed_modes(capsys, tmp_path):
    f = tmp_path / "a.json"
    f.write_text("{}")
    code, _, err = run(
        capsys, "diff", "--sets-a", str(f), "--u", "5/2,1"
    )
    assert code == 2
    assert "error:" in err


def test_strata_compare(capsys):
    doc = run_json(
        capsys, "strata", "--surface", "product",
        "--u", "5/2,1", "--v", "7/2,1", "--level", "10",
    )
    assert doc["equal"] is True
    doc = run_json(
        capsys, "strata", "--surface", "product",
        "--u", "5/2,1", "--v", "7/2,1", "--level", "12",
    )
    assert doc["equal"] is False


def test_certify_emit_walls(capsys):
    code, out, _ = run(
        capsys, "certify", "--surface", "product",
        "--u", "5/2,1", "--v", "9/2,1", "--emit-walls",
    )
    assert code == 0
    assert "walls crossed: 2" in out
    assert "t* = 1/4: gained B-3F (square -6)" in out
    assert "t* = 3/4: gained B-4F (square -8)" in out


def test_decimal_input_is_rejected(capsys):
    code, _, err = run(
        capsys, "sets", "--surface", "product", "--u", "2.5,1"
    )
    assert code == 2
    assert "write 5/2" in err


def test_non_forward_input_is_rejected(capsys):
    code, _, err = run(
        capsys, "sets", "--surface", "product", "--u", "-1,1"
    )
    assert code == 2
    assert "error:" in err


def test_nine_fold_blowup_without_box(capsys):
    code, _, err = run(
        capsys, "sets", "--surface", "blowup:9", "--u", "4,1,1,1,1,1,1,1,1,1"
    )
    assert code == 2
    assert "box" in err

    doc = run_json(
        capsys, "sets", "--surface", "blowup:9",
        "--u", "4,1,1,1,1,1,1,1,1,1", "--floor", "2", "--box", "3",
    )
    assert doc["complete"] is False


def test_bad_surface_spec(capsys):
    for spec in ("torus", "blowup", "blowup:x", "blowup:10"):
        code, _, err = run(capsys, "surface", "--surface", spec)
        assert code == 2, spec
        assert "error:" in err


def test_missing_required_flag_exits_2(capsys):
    assert cli.main(["sets", "--surface", "product"]) == 2
    capsys.readouterr()


def test_json_output_is_byte_deterministic(capsys):
    argv = (
        "capacities", "--surface", "product", "--u", "1,1",
        "--weights", "1", "--format", "json",
    )
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second
    doc = json.loads(first)
    assert doc["c_max"] == 4


def test_format_env_default(capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_FORMAT, "json")
    code, out, _ = run(
        capsys, "enumerate", "--surface", "product", "--square", "-2"
    )
    assert code == 0
    assert json.loads(out)["count"] == 2

    monkeypatch.setenv(cli.ENV_FORMAT, "yaml")
    code, _, err = run(
        capsys, "enumerate", "--surface", "product", "--square", "-2"
    )
    assert code == 2
    assert "unknown output format" in err

    # an explicit flag beats a broken environment
    code, out, _ = run(
        capsys, "enumerate", "--surface", "product", "--square", "-2",
        "--format", "text",
    )
    assert code == 0
    assert "2 classes" in out


def test_config_file_layering(capsys, tmp_path):
    cfg = tmp_path / "wallcross.json"
    cfg.write_text(json.dumps({"format": "json", "square-min": -6}))
    # config supplies the format; note hyphenated keys are accepted
    code, out, _ = run(
        capsys, "sets", "--surface", "product", "--u", "5/2,1",
        "--config", str(cfg),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["floor"] == 6

    # an explicit flag still wins over the config value
    code, out, _ = run(
        capsys, "sets", "--surface", "product", "--u", "5/2,1",
        "--config", str(cfg), "--format", "text",
    )
    assert code == 0
    assert out.startswith("sphere-class set")


def test_config_file_must_be_json_object(capsys, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("[1,2]")
    code, _, err = run(
        capsys, "surface", "--surface", "product", "--config", str(cfg)
    )
    assert code == 2
    assert "JSON object" in err
