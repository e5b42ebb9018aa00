"""Unit tests for the StringTemplate-style template engine."""

import pytest

from repro.translator.templates import (
    CSPM_TEMPLATES,
    Template,
    TemplateError,
    TemplateGroup,
)


class TestTemplate:
    def test_simple_substitution(self):
        assert Template("hello $name$").render(name="world") == "hello world"

    def test_multiple_attributes(self):
        template = Template("$a$ -> $b$")
        assert template.render(a="x", b="y") == "x -> y"

    def test_repeated_attribute(self):
        assert Template("$x$$x$").render(x="ab") == "abab"

    def test_list_with_separator(self):
        template = Template('$items; separator=", "$')
        assert template.render(items=["a", "b", "c"]) == "a, b, c"

    def test_list_without_separator(self):
        assert Template("$items$").render(items=["a", "b"]) == "ab"

    def test_none_renders_empty(self):
        assert Template("[$x$]").render(x=None) == "[]"

    def test_integers_stringified(self):
        assert Template("$n$").render(n=42) == "42"

    def test_escaped_dollar(self):
        assert Template("cost: $$5").render() == "cost: $5"

    def test_missing_attribute_raises(self):
        with pytest.raises(TemplateError, match="name"):
            Template("$name$").render()

    def test_unbalanced_dollar_rejected(self):
        with pytest.raises(TemplateError):
            Template("oops $name")

    def test_attributes_introspection(self):
        template = Template("$a$ $b$ $a$")
        assert template.attributes() == ["a", "b"]

    def test_literal_only_template(self):
        assert Template("plain text").render() == "plain text"


class TestTemplateGroup:
    def test_define_and_render(self):
        group = TemplateGroup({"greet": "hi $who$"})
        assert group.render("greet", who="you") == "hi you"

    def test_unknown_template_listed(self):
        group = TemplateGroup({"a": "x"})
        with pytest.raises(TemplateError, match="'a'"):
            group.render("b")

    def test_contains_and_names(self):
        group = TemplateGroup({"a": "x", "b": "y"})
        assert "a" in group and group.names() == ["a", "b"]

    def test_redefinition_replaces(self):
        group = TemplateGroup({"a": "old"})
        group.define("a", "new")
        assert group.render("a") == "new"


class TestCspmTemplates:
    """The bundled CSPm target-language group (model-view separation)."""

    def test_datatype(self):
        text = CSPM_TEMPLATES.render(
            "datatype", name="msgs", constructors=["reqSw", "rptSw"]
        )
        assert text == "datatype msgs = reqSw | rptSw"

    def test_channel(self):
        text = CSPM_TEMPLATES.render("channel", names=["send", "rec"], type="msgs")
        assert text == "channel send, rec : msgs"

    def test_prefix_and_event(self):
        event = CSPM_TEMPLATES.render("event", channel="rec", payload="rptSw")
        text = CSPM_TEMPLATES.render("prefix", event=event, continuation="P")
        assert text == "rec!rptSw -> P"

    def test_external_choice(self):
        text = CSPM_TEMPLATES.render("external_choice", branches=["P", "Q", "R"])
        assert text == "P [] Q [] R"

    def test_parallel(self):
        text = CSPM_TEMPLATES.render(
            "parallel", left="VMG", sync="{| send, rec |}", right="ECU"
        )
        assert text == "VMG [| {| send, rec |} |] ECU"

    def test_assert_refinement(self):
        text = CSPM_TEMPLATES.render(
            "assert_refinement", spec="SP02", impl="SYSTEM", model="T"
        )
        assert text == "assert SP02 [T= SYSTEM"

    def test_enum_set(self):
        assert (
            CSPM_TEMPLATES.render("enum_set", members=["send", "rec"])
            == "{| send, rec |}"
        )

    def test_retargeting_by_swapping_group(self):
        """The paper's re-purposing claim: another algebra = another group."""
        ccs_group = TemplateGroup(
            {
                "prefix": "$event$.$continuation$",
                "external_choice": '$branches; separator=" + "$',
            }
        )
        text = ccs_group.render(
            "prefix",
            event="a",
            continuation=ccs_group.render("external_choice", branches=["P", "Q"]),
        )
        assert text == "a.P + Q"
