"""The program's stored outputs, recomputed: see ``corpus.py``."""

import corpus


def test_stored_outputs_are_reproduced():
    stored = corpus.load()
    moved = corpus.differences(stored, corpus.compute())
    assert not moved, f"{len(moved)} of {len(stored)} corpus entries moved:\n" + "\n".join(moved)


def test_a_moved_run_names_its_first_deviating_iterate():
    stored = corpus.load()
    key = "exact toy_a gd auto K=2"
    got = {**stored[key], "iterates": [list(row) for row in stored[key]["iterates"]]}
    got["iterates"][2][1] = corpus._text(float(got["iterates"][2][1]) * (1 + 1e-9))
    got["iterates"][3][2] = "0.5"
    (line,) = corpus.differences({key: stored[key]}, {key: got})
    iteration = got["iterates"][2][0]
    assert line.startswith(f"{key}: stored iterate {iteration}: ") and "cond_m" in line
    assert corpus.differences({key: stored[key]}, {key: stored[key]}) == []
    # 1e-11 relative is within the bound; a count must match exactly.
    got["iterates"] = stored[key]["iterates"]
    got["max_cond_m"] = corpus._text(float(stored[key]["max_cond_m"]) * (1 + 1e-11))
    assert corpus.differences({key: stored[key]}, {key: got}) == []
    got["records"] += 1
    (line,) = corpus.differences({key: stored[key]}, {key: got})
    assert "records: stored" in line
