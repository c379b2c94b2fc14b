import gc
import io
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwetag.corpus import (
    Sentence,
    Token,
    VmweInstance,
    filter_orphans,
    from_tags,
    parse_cupt,
    tag_vocabulary,
    to_tags,
    write_cupt,
)
from mwetag.errors import CuptParseError, CuptWriteError
from mwetag.synth import synthetic_corpus


def make_sentence(forms, vmwes=(), upos=None):
    upos = upos or ["X"] * len(forms)
    tokens = tuple(
        Token(i + 1, form, form.lower(), pos, ("_",) * 6)
        for i, (form, pos) in enumerate(zip(forms, upos))
    )
    return Sentence(tokens, tuple(vmwes))


def cupt_text(rows, comments=("# text = x",)):
    lines = list(comments)
    for i, (form, mwe) in enumerate(rows, start=1):
        lines.append("\t".join([str(i), form, form.lower(), "X",
                                "_", "_", "0", "_", "_", "_", mwe]))
    return "\n".join(lines) + "\n\n"


def annotation_column(sentence):
    """The last column of the sentence's token lines as write_cupt writes it."""
    lines = write_cupt([sentence]).splitlines()
    return [line.split("\t")[-1] for line in lines if line and not line.startswith("#")]


FIVE_TOKEN = cupt_text([
    ("a", "*"), ("b", "2:VID"), ("c", "*"), ("d", "2"), ("e", "*"),
])


def test_parse_single_instance():
    corpus = parse_cupt(io.StringIO(FIVE_TOKEN))
    assert len(corpus) == 1
    sent = corpus[0]
    assert [t.form for t in sent.tokens] == ["a", "b", "c", "d", "e"]
    assert sent.vmwes == (VmweInstance(2, "VID", (2, 4)),)


def test_parse_no_annotation():
    corpus = parse_cupt(io.StringIO(cupt_text([("a", "*"), ("b", "*")])))
    assert corpus[0].vmwes == ()


def test_parse_overlapping_instances():
    text = cupt_text([("a", "1:VID;2:LVC.full"), ("b", "1"), ("c", "2")])
    sent = parse_cupt(io.StringIO(text))[0]
    assert sent.vmwes == (
        VmweInstance(1, "VID", (1, 2)),
        VmweInstance(2, "LVC.full", (1, 3)),
    )


def test_parse_underscore_annotation_means_none():
    sent = parse_cupt(io.StringIO(cupt_text([("a", "_")])))[0]
    assert sent.vmwes == ()
    assert annotation_column(sent) == ["*"]


def test_parse_too_few_columns_reports_line():
    with pytest.raises(CuptParseError, match="line 2"):
        parse_cupt(io.StringIO("# c\n1\tonly\n\n"))


def test_parse_unopened_continuation():
    text = cupt_text([("a", "1"), ("b", "1:VID")])
    with pytest.raises(CuptParseError, match="before its opener"):
        parse_cupt(io.StringIO(text))


def test_parse_repeated_opener():
    text = cupt_text([("a", "1:VID"), ("b", "1:VID")])
    with pytest.raises(CuptParseError, match="opened twice"):
        parse_cupt(io.StringIO(text))


@pytest.mark.parametrize("rows, message", [
    ([("a", "1:VID;1"), ("b", "1")], "line 2: expression 1 listed twice"),
    ([("a", "2:VID"), ("b", "2;2")], "line 3: expression 2 listed twice"),
])
def test_parse_rejects_expression_listed_twice_on_a_token(rows, message):
    with pytest.raises(CuptParseError, match=message):
        parse_cupt(io.StringIO(cupt_text(rows)))


def test_parse_keeps_noncontiguous_instance_numbers():
    # instance numbering is taken as-is; only openers/continuations are checked
    text = cupt_text([("a", "2:VID"), ("b", "2")])
    sent = parse_cupt(io.StringIO(text))[0]
    assert sent.vmwes == (VmweInstance(2, "VID", (1, 2)),)
    assert write_cupt([sent]) == text


def test_parse_comment_inside_sentence_rejected():
    text = "1\ta\ta\tX\t_\t*\n# late\n2\tb\tb\tX\t_\t*\n\n"
    with pytest.raises(CuptParseError, match="line 2"):
        parse_cupt(io.StringIO(text))


CANONICAL = (
    "# global.columns = ID FORM LEMMA UPOS XPOS FEATS HEAD DEPREL DEPS MISC PARSEME:MWE\n"
    "# source_sent_id = . . s1\n"
    "# text = Il s'agit d'un test\n"
    "1\tIl\til\tPRON\t_\t_\t2\tnsubj\t_\t_\t*\n"
    "2-3\ts'agit\t_\t_\t_\t_\t_\t_\t_\t_\t*\n"
    "2\ts'\tse\tPRON\t_\t_\t3\texpl\t_\t_\t1:IRV\n"
    "3\tagit\tagir\tVERB\t_\t_\t0\troot\t_\t_\t1\n"
    "4\td'un\tun\tDET\t_\t_\t5\tdet\t_\t_\t*\n"
    "5\ttest\ttest\tNOUN\t_\t_\t3\tobl\t_\t_\t*\n"
    "\n"
    "# text = rien\n"
    "1\trien\trien\tPRON\t_\t_\t0\troot\t_\t_\t*\n"
    "\n"
)


def test_byte_round_trip_canonical():
    corpus = parse_cupt(io.StringIO(CANONICAL))
    assert write_cupt(corpus) == CANONICAL


def test_ranged_line_excluded_from_positions():
    corpus = parse_cupt(io.StringIO(CANONICAL))
    sent = corpus[0]
    assert len(sent.tokens) == 5
    assert sent.raw_rows == ((1, "2-3\ts'agit\t_\t_\t_\t_\t_\t_\t_\t_\t*"),)
    assert sent.vmwes == (VmweInstance(1, "IRV", (2, 3)),)


def test_write_empty_corpus():
    assert write_cupt([]) == ""


def test_overlap_structure_round_trip():
    sent = make_sentence(
        list("abcde"),
        [VmweInstance(1, "VID", (2, 4)), VmweInstance(2, "LVC.full", (3, 4, 5))],
    )
    reparsed = parse_cupt(io.StringIO(write_cupt([sent])))[0]
    assert reparsed.vmwes == sent.vmwes
    assert annotation_column(reparsed)[3] == "1;2"


def test_write_instance_without_positions_rejected():
    sent = make_sentence(["a"], [VmweInstance(1, "VID", ())])
    with pytest.raises(CuptWriteError):
        write_cupt([sent])


def test_to_tags_simple():
    sent = make_sentence(list("abcde"), [VmweInstance(1, "VID", (2, 4))])
    assert to_tags(sent) == ["O", "B-VID", "O", "I-VID", "O"]


def test_to_tags_empty():
    assert to_tags(make_sentence(list("abc"))) == ["O", "O", "O"]


def test_to_tags_overlap_joined_label():
    sent = make_sentence(
        list("abc"),
        [VmweInstance(1, "LVC.full", (1, 2)), VmweInstance(2, "VID", (2, 3))],
    )
    assert to_tags(sent) == ["B-LVC.full", "I-LVC.full;B-VID", "I-VID"]


def test_from_tags_inverse():
    sent = make_sentence(list("abcde"))
    rebuilt = from_tags(["O", "B-VID", "O", "I-VID", "O"], sent)
    assert rebuilt.vmwes == (VmweInstance(1, "VID", (2, 4)),)
    assert annotation_column(rebuilt) == ["*", "1:VID", "*", "1", "*"]


def test_from_tags_orphan_filtered():
    sent = make_sentence(list("abc"))
    assert from_tags(["O", "I-VID", "O"], sent, apply_filter=True).vmwes == ()


def test_from_tags_orphan_promoted_without_filter():
    sent = make_sentence(list("abc"))
    rebuilt = from_tags(["O", "I-VID", "O"], sent, apply_filter=False)
    assert rebuilt.vmwes == (VmweInstance(1, "VID", (2,)),)


def test_from_tags_orphan_is_category_sensitive():
    sent = make_sentence(list("abc"))
    rebuilt = from_tags(["B-LVC.full", "I-VID", "O"], sent, apply_filter=True)
    assert rebuilt.vmwes == (VmweInstance(1, "LVC.full", (1,)),)


def test_from_tags_nearest_preceding_same_category():
    sent = make_sentence(list("abcd"))
    rebuilt = from_tags(["B-VID", "I-VID", "B-VID", "I-VID"], sent)
    assert rebuilt.vmwes == (
        VmweInstance(1, "VID", (1, 2)),
        VmweInstance(2, "VID", (3, 4)),
    )


def test_filter_orphans_examples():
    assert filter_orphans(["O", "I-VID", "O"]) == ["O", "O", "O"]
    assert filter_orphans(["B-VID", "I-VID"]) == ["B-VID", "I-VID"]
    assert filter_orphans(["I-VID", "B-VID", "I-VID"]) == ["O", "B-VID", "I-VID"]


def test_filter_orphans_same_label_b_does_not_license_i():
    # the same-position B does not count as "strictly earlier"
    assert filter_orphans(["B-VID;I-VID"]) == ["B-VID"]


def test_tag_vocabulary():
    vid = make_sentence(list("ab"), [VmweInstance(1, "VID", (1, 2))])
    assert tag_vocabulary([vid]) == ["B-VID", "I-VID", "O"]
    assert tag_vocabulary([]) == ["O"]
    overlap = make_sentence(
        list("ab"),
        [VmweInstance(1, "VID", (1, 2)), VmweInstance(2, "LVC.full", (2,))],
    )
    assert "I-VID;B-LVC.full" in tag_vocabulary([overlap])


@pytest.mark.parametrize("text", [CANONICAL, FIVE_TOKEN.removeprefix("# text = x\n")],
                         ids=["comment-first", "token-first"])
def test_parse_ignores_a_leading_byte_order_mark(text):
    assert parse_cupt(io.StringIO("\ufeff" + text)) == parse_cupt(io.StringIO(text))


# ---------------------------------------------------------------------------
# one object per distinct value within a parse

# two sentences that repeat every form, lemma, POS, middle tuple and category
REPEATED = cupt_text([("Take", "1:LVC.full"), ("a", "*"), ("walk", "1"), ("a", "*")]) * 2


def test_parse_shares_equal_values_within_a_parse():
    first, second = parse_cupt(io.StringIO(REPEATED))
    tokens = first.tokens + second.tokens
    for field in ("form", "lemma", "upos", "misc_columns"):
        for token in tokens:
            twins = [t for t in tokens if getattr(t, field) == getattr(token, field)]
            assert all(getattr(t, field) is getattr(token, field) for t in twins), field
    assert first.tokens[0].form is second.tokens[0].form
    assert first.tokens[1].form is first.tokens[3].lemma  # "a", whatever the column
    assert first.vmwes[0].category is second.vmwes[0].category


def _traced_bytes(build):
    """What build() returns, and the bytes it leaves allocated. A full
    collection first empties the interpreter's free lists, which keep the
    memory of freed tuples."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        built = build()
        gc.collect()
        return built, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_parse_retains_few_bytes_per_repeated_token():
    # about 10k tokens over a small vocabulary: the tokens hold one copy of
    # each distinct value. Measured: 122 B a token, and 371 without sharing.
    text = write_cupt(synthetic_corpus(1500, 2))
    corpus, retained = _traced_bytes(lambda: parse_cupt(io.StringIO(text)))
    tokens = sum(len(sentence.tokens) for sentence in corpus)
    assert 9_000 < tokens < 11_000
    assert retained / tokens < 2 * 122


def distinct_text(n_tokens):
    """One sentence in which every form, lemma and middle tuple is new."""
    lines = ["# text = all distinct"]
    for i in range(1, n_tokens + 1):
        lines.append("\t".join([str(i), f"form{i}", f"lemma{i}", "X", f"x{i}",
                                f"F={i}", str(i - 1), "dep", "_", f"M={i}",
                                "1:VID" if i == 1 else "*"]))
    return "\n".join(lines) + "\n\n"


def test_parse_keeps_nothing_once_the_corpus_is_dropped():
    # a table kept past the call would hold ~10k strings and tuples here
    text = distinct_text(2000)
    _, left = _traced_bytes(lambda: len(parse_cupt(io.StringIO(text))))
    assert left < 2048


def test_parse_shares_equal_columns_of_distinct_middle_tuples():
    # HEAD and MISC make every tuple new, as in a treebank; DEPREL repeats
    tokens = parse_cupt(io.StringIO(distinct_text(50)))[0].tokens
    assert len({token.misc_columns for token in tokens}) == 50
    assert len({id(token.misc_columns[3]) for token in tokens}) == 1


def test_parse_round_trips_a_corpus_of_distinct_values():
    text = distinct_text(300)
    corpus = parse_cupt(io.StringIO(text))
    assert len({token.misc_columns for token in corpus[0].tokens}) == 300
    assert write_cupt(corpus) == text


# ---------------------------------------------------------------------------
# randomized properties

CATEGORIES = ["VID", "LVC.full", "IRV"]

ATOM = st.builds(
    lambda p, c: f"{p}-{c}", st.sampled_from("BI"), st.sampled_from(CATEGORIES)
)
LABEL = st.one_of(
    st.just("O"),
    st.lists(ATOM, min_size=1, max_size=3).map(";".join),
)
TAGS = st.lists(LABEL, min_size=1, max_size=12)


@st.composite
def sentences_with_instances(draw):
    """Random sentences whose same-category instances never interleave (the
    only configuration the labelling scheme encodes unambiguously)."""
    n = draw(st.integers(min_value=1, max_value=12))
    instances = []
    for category in CATEGORIES:
        cursor = 1
        while cursor <= n and draw(st.booleans()):
            size = draw(st.integers(min_value=1, max_value=3))
            window = list(range(cursor, min(n, cursor + 4) + 1))
            if len(window) < size:
                break
            positions = sorted(draw(st.permutations(window))[:size])
            instances.append((category, tuple(positions)))
            cursor = positions[-1] + 1
    instances.sort(key=lambda inst: inst[1][0])
    vmwes = [
        VmweInstance(i, category, positions)
        for i, (category, positions) in enumerate(instances, start=1)
    ]
    return make_sentence(["w%d" % i for i in range(n)], vmwes)


@given(sentences_with_instances())
def test_round_trip_spans(sentence):
    rebuilt = from_tags(to_tags(sentence), sentence, apply_filter=False)
    assert {(v.category, v.token_positions) for v in rebuilt.vmwes} == {
        (v.category, v.token_positions) for v in sentence.vmwes
    }


@st.composite
def parsed_sentences(draw):
    """Sentences as parse_cupt reads them back from write_cupt: any instances
    over any token sets, so same-category instances may interleave and share
    tokens."""
    n = draw(st.integers(min_value=1, max_value=12))
    positions = st.sets(st.integers(min_value=1, max_value=n), min_size=1, max_size=4)
    instances = draw(st.lists(
        st.tuples(st.sampled_from(CATEGORIES), positions.map(sorted)), max_size=5
    ))
    vmwes = [
        VmweInstance(k, category, tuple(where))
        for k, (category, where) in enumerate(instances, start=1)
    ]
    text = write_cupt([make_sentence(["w%d" % i for i in range(n)], vmwes)])
    return parse_cupt(io.StringIO(text))[0]


@given(parsed_sentences())
def test_gold_tags_survive_filtering(sentence):
    tags = to_tags(sentence)
    assert filter_orphans(tags) == tags


@given(TAGS)
def test_filter_orphans_idempotent(tags):
    once = filter_orphans(tags)
    assert filter_orphans(once) == once


@given(TAGS)
def test_filter_leaves_no_orphans(tags):
    seen_b = set()
    for label in filter_orphans(tags):
        atoms = [] if label == "O" else label.split(";")
        for atom in atoms:
            if atom.startswith("I-"):
                assert atom[2:] in seen_b
        for atom in atoms:
            if atom.startswith("B-"):
                seen_b.add(atom[2:])


@given(TAGS)
def test_filtered_decoding_is_subset(tags):
    sent = make_sentence(["w%d" % i for i in range(len(tags))])
    filtered = {
        (v.category, v.token_positions)
        for v in from_tags(tags, sent, apply_filter=True).vmwes
    }
    unfiltered = {
        (v.category, v.token_positions)
        for v in from_tags(tags, sent, apply_filter=False).vmwes
    }
    assert filtered <= unfiltered


@given(st.lists(sentences_with_instances(), max_size=5))
@settings(max_examples=50)
def test_write_then_parse_is_canonical(corpus):
    text = write_cupt(corpus)
    reparsed = parse_cupt(io.StringIO(text))
    assert write_cupt(reparsed) == text
    assert [s.vmwes for s in reparsed] == [s.vmwes for s in corpus]
