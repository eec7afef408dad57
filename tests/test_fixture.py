"""The synthetic demo corpus: structure, decoys, and reproducibility."""

import json
from datetime import date

from sentdep.fixture import (
    N_TRADING_DAYS,
    NULL_CLOSE_INDEX,
    PLANTED_ASPECT,
    PLANTED_TICKER,
    fixture_trading_days,
    generate_fixture,
)
from sentdep.ingest import load_aspects, parse_prices, parse_tweets
from sentdep.pipeline import load_config


def test_trading_calendar_shape():
    days = fixture_trading_days()
    assert len(days) == N_TRADING_DAYS == 62
    assert days[0] == date(2022, 10, 3)
    assert days[-1] == date(2022, 12, 29)
    assert all(d.weekday() < 5 for d in days)
    assert date(2022, 11, 24) not in days  # holiday gaps
    assert date(2022, 12, 26) not in days


def test_generated_tree_is_a_valid_pipeline_input(tmp_path):
    config_path = generate_fixture(tmp_path / "demo", seed=0)
    cfg = load_config(config_path)
    cfg.validate()
    assert set(cfg.prices) == {"SHEL", "BP", "XOM", "BEPC", "CWEN", "NEE"}
    assert PLANTED_TICKER in cfg.prices
    aspects = load_aspects(cfg.aspects)
    assert PLANTED_ASPECT in aspects.aspects
    assert len(aspects.aspects) == 20


def test_tweets_include_weekends_and_foreign_decoys(tmp_path):
    generate_fixture(tmp_path / "demo", seed=0)
    lines = (tmp_path / "demo" / "tweets.jsonl").read_text(encoding="utf-8").splitlines()
    records = [json.loads(ln) for ln in lines]
    langs = {r["lang"] for r in records}
    assert "es" in langs  # decoys exist in the raw file ...
    weekend = [r for r in records if date.fromisoformat(r["created_at"][:10]).weekday() >= 5]
    assert weekend  # ... and so do weekend posts
    kept = parse_tweets(tmp_path / "demo" / "tweets.jsonl")
    assert all(t.lang == "en" for t in kept)  # ... but the parser drops decoys
    assert any("https://" in r["text"] for r in records)


def test_planted_price_file_tracks_lagged_positive_count(tmp_path):
    generate_fixture(tmp_path / "demo", seed=0)
    closes = parse_prices(tmp_path / "demo" / f"prices_{PLANTED_TICKER}.csv",
                          PLANTED_TICKER)
    days = fixture_trading_days()
    assert sorted(closes) == days
    # close = 30 + 0.9·count + noise with count ≥ 0 keeps a hard floor
    assert all(v > 29.0 for v in closes.values())


def test_null_close_row_is_skippable(tmp_path):
    generate_fixture(tmp_path / "demo", seed=0)
    raw = (tmp_path / "demo" / "prices_XOM.csv").read_text(encoding="utf-8")
    null_day = fixture_trading_days()[NULL_CLOSE_INDEX]
    assert f"{null_day.isoformat()},null" in raw
    closes = parse_prices(tmp_path / "demo" / "prices_XOM.csv", "XOM")
    assert len(closes) == N_TRADING_DAYS - 1
    assert null_day not in closes


def test_same_seed_reproduces_identical_bytes(tmp_path):
    generate_fixture(tmp_path / "a", seed=3)
    generate_fixture(tmp_path / "b", seed=3)
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_different_seeds_differ(tmp_path):
    generate_fixture(tmp_path / "a", seed=0)
    generate_fixture(tmp_path / "b", seed=1)
    assert ((tmp_path / "a" / "tweets.jsonl").read_bytes()
            != (tmp_path / "b" / "tweets.jsonl").read_bytes())
