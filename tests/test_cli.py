"""CLI tests."""

import re
from pathlib import Path

import pytest

from repro import cli
from repro.cli import main

APP_DIR = Path(__file__).resolve().parents[1] / "src/repro/apps/programs"
WIND = str(APP_DIR / "wind_sensor.sj")
WEATHER = str(APP_DIR / "weather_index.sj")
MP3 = str(APP_DIR / "mp3_decoder.sj")

#: SInfer's annotation of a loop that sums four reads; the checker
#: accepts it.  A fault on ``i`` changes how many values an iteration
#: reads.
SUMMER = '''
@LATTICE("total")
class Summer {
  @LOC("total") int total;
  @LATTICE("IL1_run<PC,s<IL1_run,this<s,IL1_run*,s*")
  @THISLOC("this")
  @PCLOC("PC")
  void run() {
    SSJAVA:
    while (true) {
      @LOC("s") int s = 0;
      for (@LOC("IL1_run") int i = 0; i < 4; i += 1) { s = s + Device.readInt(); }
      this.total = s;
      SJ.emit(this.total);
    }
  }
}
'''


@pytest.fixture
def broken_program(tmp_path):
    path = tmp_path / "broken.sj"
    path.write_text('''
    @LATTICE("LOW<HIGH")
    class T {
      @LOC("LOW") int low;
      @LOC("HIGH") int high;
      @LATTICE("B<X,X<IN") @THISLOC("X")
      void run() {
        SSJAVA:
        while (true) {
          @LOC("IN") int v = Device.readSensor();
          low = v;
          high = low;
          SJ.broadcast(high);
        }
      }
    }
    ''')
    return str(path)


class TestCheck:
    def test_check_passing_program(self, capsys):
        assert main(["check", WIND]) == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_check_failing_program(self, broken_program, capsys):
        assert main(["check", broken_program]) == 1
        assert "flow-down" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["check", "/nope/missing.sj"]) == 2

    def test_syntax_error(self, tmp_path, capsys):
        path = tmp_path / "bad.sj"
        path.write_text("class {")
        assert main(["check", str(path)]) == 2
        assert "front-end error" in capsys.readouterr().err

    def test_non_decimal_digit_is_a_front_end_error(self, tmp_path, capsys):
        # "²".isdigit() holds, but int("²") raises ValueError
        path = tmp_path / "digit.sj"
        path.write_text("class A { void m() { int x = ²; } }", encoding="utf-8")
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert "front-end error" in err
        assert "1:30: unexpected character '²'" in err


class TestInfer:
    def test_infer_emits_annotations(self, tmp_path, capsys):
        stripped = tmp_path / "stripped.sj"
        from repro.apps import app_source

        stripped.write_text(app_source("weather_index", annotated=False))
        assert main(["infer", str(stripped)]) == 0
        captured = capsys.readouterr()
        assert "@LATTICE(" in captured.out
        assert "verified" in captured.err

    def test_infer_verifies_an_overflowing_float_literal(self, tmp_path, capsys):
        """SInfer's verify step re-parses the program it printed."""
        path = tmp_path / "big.sj"
        path.write_text('''
        class Main {
          float f;
          void run() {
            SSJAVA:
            while (true) {
              float v = Device.readFloat() + 1e999;
              f = v;
              SJ.emit(f);
            }
          }
        }
        ''')
        assert main(["infer", str(path), "--quiet"]) == 0
        assert "// checker: verified" in capsys.readouterr().err

    def test_infer_naive_mode(self, tmp_path, capsys):
        stripped = tmp_path / "stripped.sj"
        from repro.apps import app_source

        stripped.write_text(app_source("wind_sensor", annotated=False))
        assert main(["infer", str(stripped), "--mode", "naive", "--quiet"]) == 0
        assert "@LATTICE" not in capsys.readouterr().out


def inject_experiment(path, *argv):
    """The experiment ``repro inject PATH ARGV...`` runs."""
    args = cli.build_parser().parse_args(["inject", path, *argv])
    return cli._inject_experiment(args, cli._load(path))


class TestRunAndInject:
    def test_run_produces_output(self, capsys):
        assert main(["run", WEATHER, "--iterations", "5"]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.strip().splitlines()) == 5
        assert "5 iterations" in captured.err

    def test_run_reads_floats_from_float_readers(self, tmp_path, capsys):
        path = tmp_path / "scale.sj"
        path.write_text('''
        class Main {
          void run() {
            SSJAVA:
            while (true) {
              float scale = Device.readScale();
              SJ.emit(scale / 2);
            }
          }
        }
        ''')
        assert main(["run", str(path), "--iterations", "6"]) == 0
        values = [float(v) for v in capsys.readouterr().out.split()]
        assert len(values) == 6
        assert not all(value.is_integer() for value in values)

    def test_checked_program_diverges_only_in_its_final_iteration(
        self, tmp_path
    ):
        """Inputs keyed by iteration: a fault that changes one
        iteration's read count leaves later inputs alone, so a trial
        injected before the final iteration recovers or times out."""
        path = tmp_path / "summer.sj"
        path.write_text(SUMMER)
        assert main(["check", str(path)]) == 0
        experiment = inject_experiment(str(path), "--iterations", "8")
        trials = [
            experiment.trial_at(site, seed=site)
            for site in range(experiment.total_steps())
        ]
        diverged = {t.injection_iteration for t in trials if t.diverged}
        assert diverged <= {7}
        assert any(t.timed_out for t in trials)

    def test_inject_resumes_and_reports_timeouts(self, capsys):
        experiment = inject_experiment(MP3, "--iterations", "10")
        assert experiment.reference_trace() is not None
        code = main(["inject", MP3, "--trials", "4", "--iterations", "10"])
        summary = re.fullmatch(
            r"trials: 4  corrupted: \d+  diverged: (\d+)  timeout: \d+",
            capsys.readouterr().out.splitlines()[0],
        )
        assert summary is not None
        assert code == (1 if int(summary.group(1)) else 0)

    def test_inject_reports_histogram(self, capsys):
        assert main([
            "inject", WEATHER, "--trials", "6", "--iterations", "15"
        ]) == 0
        assert "corrupted:" in capsys.readouterr().out

    def test_inject_exit_1_when_trials_diverge(self, monkeypatch, capsys):
        """A diverged trial falsifies stabilization: that run must not
        exit 0."""
        from repro.runtime.stabilization import InjectionTrial

        diverged = InjectionTrial(
            target_step=1, injection_iteration=2, corrupted_output=True,
            recovery_samples=None, recovery_iterations=None, diverged=True,
        )

        class FakeExperiment:
            def __init__(self, *args, **kwargs):
                pass

            def run_trials(self, trials, seed=0):
                return [diverged] * trials

        monkeypatch.setattr(
            "repro.runtime.StabilizationExperiment", FakeExperiment
        )
        assert main(["inject", WEATHER, "--trials", "3"]) == 1
        assert "diverged: 3" in capsys.readouterr().out


class TestLattices:
    def test_ascii_rendering(self, capsys):
        assert main(["lattices", WEATHER]) == 0
        out = capsys.readouterr().out
        assert "class Weather" in out
        assert "⊤" in out and "⊥" in out

    def test_dot_rendering(self, capsys):
        assert main(["lattices", WEATHER, "--format", "dot"]) == 0
        out = capsys.readouterr().out
        assert "digraph" in out
        assert "->" in out


class TestApps:
    def test_listing_names_every_app(self, capsys):
        from repro.apps import all_app_names

        assert main(["apps", "--no-sites"]) == 0
        out = capsys.readouterr().out
        for name in all_app_names():
            assert name in out
        assert "single-node" in out and "distributed" in out

    def test_json_catalog(self, capsys):
        import json

        assert main(["apps", "--json", "--no-sites"]) == 0
        catalog = json.loads(capsys.readouterr().out)
        by_name = {entry["name"]: entry for entry in catalog}
        assert by_name["wind_sensor"]["kind"] == "single-node"
        assert by_name["herman_bit"]["kind"] == "distributed"
        assert by_name["herman_bit"]["topology"] == "ring:5"
        assert by_name["herman_bit"]["devices"] == [
            "readSelf", "readLeft", "readCoin",
        ]
        assert "sites" not in by_name["wind_sensor"]

    def test_site_counts_included_by_default(self, capsys):
        assert main(["apps", "--json"]) == 0
        import json

        catalog = json.loads(capsys.readouterr().out)
        assert all(entry["sites"] > 0 for entry in catalog)


class TestDist:
    def test_run_prints_reference_summary(self, capsys):
        assert main(["dist", "run", "--app", "dijkstra_ring"]) == 0
        captured = capsys.readouterr()
        assert "dijkstra_ring" in captured.err  # topology summary
        assert "node 0:" in captured.out and "node 4:" in captured.out

    def test_run_with_injection_reports_verdict(self, capsys):
        assert main([
            "dist", "run", "--app", "gradient_field", "--inject", "500",
        ]) == 0
        out = capsys.readouterr().out
        assert "site 500" in out

    def test_unknown_app_is_a_usage_error(self, capsys):
        assert main(["dist", "run", "--app", "nonexistent"]) == 2

    def test_topology_override_validated(self, capsys):
        assert main([
            "dist", "run", "--app", "herman_bit", "--topology", "ring:4",
        ]) == 2
        assert "odd ring" in capsys.readouterr().err
