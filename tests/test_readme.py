from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_block_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library use\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(README), "exec"), {})
    # params dict, classification, p-value
    printed = capsys.readouterr().out.split()
    assert printed[-2] in ("GoodFit", "Inconclusive", "NotFit")
    assert 0.0 <= float(printed[-1]) <= 1.0
