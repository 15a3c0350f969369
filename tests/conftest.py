from __future__ import annotations

import contextlib
import json
import socket
import sqlite3
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from sqlbench.schema import ColumnSpec, DatabaseCatalog, ForeignKey, TableSpec


@pytest.fixture()
def movie_catalog() -> DatabaseCatalog:
    """Two-table catalog exercising every optional column element."""
    movies = TableSpec("movies", (
        ColumnSpec("movie_id", "int", "unique id of the movie", None, True),
        ColumnSpec("movie_title", "text", "name of the movie"),
        ColumnSpec("movie_release_year", "int", "year of release"),
        ColumnSpec("movie_popularity", "real"),
    ))
    ratings = TableSpec("ratings", (
        ColumnSpec("rating_id", "int", None, None, True),
        ColumnSpec("movie_id", "int", "id of the rated movie"),
        ColumnSpec("rating_score", "int", "score from 1 to 5", ("1", "2", "3", "4", "5")),
        ColumnSpec("rating_label", "text", None, ("good, solid", "bad")),
    ))
    return DatabaseCatalog(
        "movie_platform",
        (movies, ratings),
        (ForeignKey("ratings", "movie_id", "movies", "movie_id"),),
    )


def make_continent_db(path: Path) -> Path:
    """The classic two-table fixture: continents and countries."""
    conn = sqlite3.connect(path)
    conn.executescript("""
        CREATE TABLE continents (
            ContId INTEGER PRIMARY KEY,
            Continent TEXT
        );
        CREATE TABLE countries (
            CountryId INTEGER PRIMARY KEY,
            CountryName TEXT,
            Continent INTEGER,
            FOREIGN KEY (Continent) REFERENCES continents(ContId)
        );
        INSERT INTO continents VALUES (1, 'america'), (2, 'europe'), (3, 'asia');
        INSERT INTO countries VALUES
            (1, 'usa', 1), (2, 'germany', 2), (3, 'france', 2), (4, 'japan', 3);
    """)
    conn.commit()
    conn.close()
    return path


def make_cinema_db(path: Path) -> Path:
    conn = sqlite3.connect(path)
    conn.executescript("""
        CREATE TABLE movies (
            movie_id INTEGER PRIMARY KEY,
            movie_title TEXT,
            movie_release_year INTEGER,
            movie_popularity REAL
        );
        CREATE TABLE ratings (
            rating_id INTEGER PRIMARY KEY,
            movie_id INTEGER,
            rating_score INTEGER,
            rating_label TEXT,
            FOREIGN KEY (movie_id) REFERENCES movies(movie_id)
        );
        INSERT INTO movies VALUES
            (1, 'La Dolce Vita', 1960, 8.1),
            (2, 'The Third Man', 1949, 7.9),
            (3, 'Cinema Paradiso', 1988, 8.5),
            (4, 'Sunset Boulevard', 1950, 8.4);
        INSERT INTO ratings VALUES
            (1, 1, 5, 'great'),
            (2, 1, 4, 'good'),
            (3, 2, 5, 'great'),
            (4, 3, 3, 'fine'),
            (5, 4, 4, 'good');
    """)
    conn.commit()
    conn.close()
    return path


def make_school_db(path: Path) -> Path:
    conn = sqlite3.connect(path)
    conn.executescript("""
        CREATE TABLE schools (
            CDSCode TEXT PRIMARY KEY,
            School TEXT,
            Phone TEXT,
            County TEXT
        );
        CREATE TABLE satscores (
            cds TEXT PRIMARY KEY,
            NumTstTakr INTEGER,
            NumGE1500 INTEGER,
            FOREIGN KEY (cds) REFERENCES schools(CDSCode)
        );
        INSERT INTO schools VALUES
            ('01', 'Alameda High', '510-555-0101', 'Alameda'),
            ('02', 'Berkeley High', '510-555-0202', 'Alameda'),
            ('03', 'Fresno High', '559-555-0303', 'Fresno');
        INSERT INTO satscores VALUES
            ('01', 200, 150),
            ('02', 400, 380),
            ('03', 300, 90);
    """)
    conn.commit()
    conn.close()
    return path


def write_benchmark(root: Path, questions: list[dict], databases: dict[str, callable],
                    descriptions: dict[str, dict[str, list[tuple[str, str]]]] | None = None,
                    split: str = "dev",
                    extra_splits: dict[str, list[dict]] | None = None) -> Path:
    """Lay out a BIRD-format benchmark directory."""
    root.mkdir(parents=True, exist_ok=True)
    (root / f"{split}.json").write_text(json.dumps(questions), encoding="utf-8")
    for name, extra in (extra_splits or {}).items():
        (root / f"{name}.json").write_text(json.dumps(extra), encoding="utf-8")
    for db_id, maker in databases.items():
        db_dir = root / "databases" / db_id
        db_dir.mkdir(parents=True, exist_ok=True)
        maker(db_dir / f"{db_id}.sqlite")
        for table, rows in (descriptions or {}).get(db_id, {}).items():
            desc_dir = db_dir / "database_description"
            desc_dir.mkdir(exist_ok=True)
            lines = ["original_column_name,column_description"]
            lines += [f"{col},{desc}" for col, desc in rows]
            (desc_dir / f"{table}.csv").write_text("\n".join(lines), encoding="utf-8")
    return root


MINI_QUESTIONS = [
    {"question_id": 0, "question": "What is the title of the movie released in 1949?",
     "evidence": "", "SQL": "SELECT movie_title FROM movies WHERE movie_release_year = 1949",
     "db_id": "cinema", "difficulty": "simple"},
    {"question_id": 1, "question": "How many movies are there?",
     "evidence": "", "SQL": "SELECT COUNT(*) FROM movies",
     "db_id": "cinema", "difficulty": "simple"},
    {"question_id": 2, "question": "List movie titles by popularity descending.",
     "evidence": "", "SQL": "SELECT movie_title FROM movies ORDER BY movie_popularity DESC",
     "db_id": "cinema", "difficulty": "simple"},
    {"question_id": 3, "question": "What is the highest rating score?",
     "evidence": "", "SQL": "SELECT MAX(rating_score) FROM ratings",
     "db_id": "cinema", "difficulty": "simple"},
    {"question_id": 4, "question": "Which movie has the most ratings?",
     "evidence": "",
     "SQL": "SELECT movies.movie_title FROM movies JOIN ratings ON movies.movie_id = ratings.movie_id GROUP BY movies.movie_id ORDER BY COUNT(*) DESC LIMIT 1",
     "db_id": "cinema", "difficulty": "moderate"},
    {"question_id": 5, "question": "What are the phone numbers of schools in Alameda county?",
     "evidence": "", "SQL": "SELECT Phone FROM schools WHERE County = 'Alameda'",
     "db_id": "schools", "difficulty": "moderate"},
    {"question_id": 6, "question": "Please list the phone numbers of the schools with the top 1 SAT excellence rate.",
     "evidence": "Excellence rate = NumGE1500 / NumTstTakr.",
     "SQL": "SELECT schools.Phone FROM schools JOIN satscores ON schools.CDSCode = satscores.cds ORDER BY CAST(satscores.NumGE1500 AS REAL) / satscores.NumTstTakr DESC LIMIT 1",
     "db_id": "schools", "difficulty": "moderate"},
    {"question_id": 7, "question": "How many schools have more than 250 SAT takers?",
     "evidence": "", "SQL": "SELECT COUNT(*) FROM satscores WHERE NumTstTakr > 250",
     "db_id": "schools", "difficulty": "moderate"},
    {"question_id": 8, "question": "What is the average popularity of movies rated 5?",
     "evidence": "",
     "SQL": "SELECT AVG(movies.movie_popularity) FROM movies JOIN ratings ON movies.movie_id = ratings.movie_id WHERE ratings.rating_score = 5",
     "db_id": "cinema", "difficulty": "challenging"},
    {"question_id": 9, "question": "Which county has the highest total of SAT takers?",
     "evidence": "",
     "SQL": "SELECT schools.County FROM schools JOIN satscores ON schools.CDSCode = satscores.cds GROUP BY schools.County ORDER BY SUM(satscores.NumTstTakr) DESC LIMIT 1",
     "db_id": "schools", "difficulty": "challenging"},
]

POOL_QUESTIONS = [
    {"question_id": 100, "question": "What is the lowest rating score?",
     "evidence": "", "SQL": "SELECT MIN(rating_score) FROM ratings",
     "db_id": "cinema", "difficulty": "simple"},
    {"question_id": 101, "question": "How many ratings does movie 1 have?",
     "evidence": "", "SQL": "SELECT COUNT(*) FROM ratings WHERE movie_id = 1",
     "db_id": "cinema", "difficulty": "simple"},
    {"question_id": 102, "question": "How many schools are in Fresno county?",
     "evidence": "", "SQL": "SELECT COUNT(*) FROM schools WHERE County = 'Fresno'",
     "db_id": "schools", "difficulty": "simple"},
    {"question_id": 103, "question": "What is the total number of SAT takers?",
     "evidence": "", "SQL": "SELECT SUM(NumTstTakr) FROM satscores",
     "db_id": "schools", "difficulty": "simple"},
]

MINI_DESCRIPTIONS = {
    "schools": {
        "schools": [
            ("CDSCode", "unique school code"),
            ("School", "school name"),
            ("Phone", "phone number of school"),
            ("County", "county name"),
        ],
        "satscores": [
            ("cds", "school code"),
            ("NumTstTakr", "number of test takers"),
            ("NumGE1500", "number of scores over 1500"),
        ],
    },
    "cinema": {
        "movies": [
            ("movie_id", "unique id of the movie"),
            ("movie_title", "name of the movie"),
            ("movie_release_year", "year of release"),
            ("movie_popularity", "popularity score"),
        ],
    },
}


@pytest.fixture()
def mini_bench(tmp_path: Path) -> Path:
    return write_benchmark(
        tmp_path / "bench",
        MINI_QUESTIONS,
        {"cinema": make_cinema_db, "schools": make_school_db},
        MINI_DESCRIPTIONS,
        extra_splits={"train": POOL_QUESTIONS},
    )


# Responses whose extracted SQL matches gold for questions 0,1,2,5,6,7 and
# misses for 3,4,8,9: simple 3/4, moderate 3/4, challenging 0/2 -> sum 60.0.
MINI_RESPONSES = {
    0: " movie_title FROM movies WHERE movie_release_year = 1949",
    1: " COUNT(*) FROM movies",
    2: " movie_title FROM movies ORDER BY movie_popularity DESC",
    3: " MIN(rating_score) FROM ratings",
    4: " movie_title FROM movies WHERE movie_id = 2",
    5: " Phone FROM schools WHERE County = 'Alameda'",
    6: (" schools.Phone FROM schools JOIN satscores ON schools.CDSCode = satscores.cds "
        "ORDER BY CAST(satscores.NumGE1500 AS REAL) / satscores.NumTstTakr DESC LIMIT 1"),
    7: " COUNT(*) FROM satscores WHERE NumTstTakr > 250",
    8: " AVG(movie_popularity) FROM movies",
    9: " County FROM schools WHERE County = 'Fresno'",
}


def question_of(prompt: str) -> str:
    """Pull the target question text out of a rendered prompt."""
    line = [l for l in prompt.splitlines() if l.startswith("### Question: ")][-1]
    return line[len("### Question: "):].rstrip(".")


def completion_by_question(questions: list[dict], responses: dict[int, str]):
    """Scripted completion keyed on the prompt's target question line."""
    by_text = {}
    for q in questions:
        if q["question_id"] not in responses:
            continue  # pool candidates are never completed
        key = q["question"].rstrip(".? ").strip()
        by_text[key] = responses[q["question_id"]]

    def complete(prompt: str) -> str:
        asked = question_of(prompt).rstrip("?. ").strip()
        return by_text[asked]
    return complete


class ScriptedTransport:
    """Fake HTTP transport answering from a prompt -> text function."""

    def __init__(self, completion_fn=None, embed_fn=None, status: int = 200):
        self.completion_fn = completion_fn
        self.embed_fn = embed_fn
        self.status = status
        self.requests: list[dict] = []

    def __call__(self, url, payload, headers, timeout):
        self.requests.append({"url": url, "payload": payload, "headers": headers})
        if self.status != 200:
            return self.status, {"error": "scripted failure"}
        if "embeddings" in url:
            vectors = [self.embed_fn(text) for text in payload["input"]]
            return 200, {"data": [
                {"index": i, "embedding": vec} for i, vec in enumerate(vectors)
            ]}
        if "chat" in url:
            text = self.completion_fn(payload["messages"][0]["content"])
            return 200, {
                "choices": [{"message": {"content": text}}],
                "usage": {"prompt_tokens": 1, "completion_tokens": 1},
            }
        text = self.completion_fn(payload["prompt"])
        return 200, {
            "choices": [{"text": text}],
            "usage": {"prompt_tokens": 1, "completion_tokens": 1},
        }


def hash_embedding(text: str, dim: int = 8) -> list[float]:
    """Deterministic pseudo-embedding so similarity tests are stable."""
    import hashlib

    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return [(digest[i % len(digest)] - 128) / 128.0 or 0.01 for i in range(dim)]


class _CountingHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: "CountingServer"

    def setup(self) -> None:
        super().setup()
        self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.answered = 0
        with self.server.lock:
            self.server.connections += 1

    def finish(self) -> None:
        super().finish()
        with self.server.lock:
            self.server.closed += 1

    def log_message(self, format, *args) -> None:
        pass

    def do_POST(self) -> None:
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        server = self.server
        if server.drop_every and self.answered == server.drop_every:
            with server.lock:
                server.dropped += 1
            self.close_connection = True
            return
        status, reply = server.answer(server.base_url + self.path, payload, dict(self.headers), None)
        body = json.dumps(reply).encode("utf-8")
        with server.lock:
            server.requests += 1
        # Headers and body in one send: two sends would make a kept-alive
        # client wait for the delayed ACK on every request.
        self.wfile.write(f"HTTP/1.1 {status} {self.responses[status][0]}\r\n"
                         f"Content-Type: application/json\r\n"
                         f"Content-Length: {len(body)}\r\n\r\n".encode("ascii") + body)
        self.answered += 1


class CountingServer(ThreadingHTTPServer):
    """Local keep-alive HTTP endpoint answering POSTs through a transport
    function such as ScriptedTransport. It counts answered requests,
    accepted connections and connections it has seen closed; with
    `drop_every` N, a connection that has answered N requests closes when
    the next one arrives, before any response."""

    daemon_threads = True

    def __init__(self, answer, drop_every: int = 0):
        super().__init__(("127.0.0.1", 0), _CountingHandler)
        self.answer = answer
        self.drop_every = drop_every
        self.lock = threading.Lock()
        self.requests = self.connections = self.dropped = self.closed = 0
        self.base_url = f"http://127.0.0.1:{self.server_address[1]}"

    def all_closed(self, timeout: float = 10.0) -> bool:
        """Whether every accepted connection is closed, waiting up to `timeout`."""
        deadline = time.monotonic() + timeout
        while True:
            with self.lock:
                if self.closed == self.connections:
                    return True
            if time.monotonic() > deadline:
                return False
            time.sleep(0.01)


@contextlib.contextmanager
def counting_server(answer, drop_every: int = 0):
    server = CountingServer(answer, drop_every)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()
