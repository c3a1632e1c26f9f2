"""Tests for HTTP types, TLS simulation, and HTML generation."""

import pytest

from repro.websim.html import HtmlPage
from repro.websim.http import (
    FIREFOX_28_USER_AGENT,
    HttpRequest,
    HttpResponse,
)
from repro.websim.tls import Certificate, CertificateAuthority


class TestHttpRequest:
    def test_defaults(self):
        request = HttpRequest("example.com")
        assert request.url == "http://example.com/"
        assert request.headers["User-Agent"] == FIREFOX_28_USER_AGENT
        assert request.headers["Host"] == "example.com"

    def test_https_url(self):
        request = HttpRequest("example.com", "/login", scheme="https")
        assert request.url == "https://example.com/login"


class TestHttpResponse:
    def test_redirect(self):
        response = HttpResponse.redirect("http://other.example/")
        assert response.is_redirect
        assert response.location == "http://other.example/"

    def test_not_redirect_without_location(self):
        assert not HttpResponse(302).is_redirect

    def test_reason_defaults(self):
        assert HttpResponse(404).reason == "Not Found"
        assert HttpResponse(299).reason == "Unknown"


class TestCertificates:
    def test_exact_match(self):
        certificate = Certificate("example.com")
        assert certificate.matches("example.com")
        assert certificate.matches("EXAMPLE.COM.")
        assert not certificate.matches("www.example.com")

    def test_san_match(self):
        certificate = Certificate("example.com",
                                  san=("example.com", "www.example.com"))
        assert certificate.matches("www.example.com")

    def test_wildcard_one_label_only(self):
        certificate = Certificate("*.example.com")
        assert certificate.matches("www.example.com")
        assert not certificate.matches("a.b.example.com")
        assert not certificate.matches("example.com")

    def test_ca_issue_and_validate(self):
        ca = CertificateAuthority()
        certificate = ca.issue("example.com")
        assert ca.validates(certificate, "example.com")
        assert not ca.validates(certificate, "other.com")

    def test_self_signed_rejected(self):
        ca = CertificateAuthority()
        certificate = CertificateAuthority.self_signed("paypal.com")
        assert certificate.matches("paypal.com")
        assert not ca.validates(certificate, "paypal.com")

    def test_foreign_issuer_rejected(self):
        ca = CertificateAuthority()
        other = CertificateAuthority("Rogue CA")
        assert not ca.validates(other.issue("example.com"), "example.com")

    def test_expiry(self):
        ca = CertificateAuthority()
        certificate = Certificate("example.com", issuer=ca.name,
                                  not_after=100.0)
        assert ca.validates(certificate, "example.com", now=50.0)
        assert not ca.validates(certificate, "example.com", now=150.0)

    def test_validates_none(self):
        assert not CertificateAuthority().validates(None, "example.com")


class TestHtmlPage:
    def test_structure(self):
        page = HtmlPage("My Title")
        page.add_heading("Hello")
        page.add_paragraph("World")
        page.add_link("/x", "link")
        page.add_image("/y.png", alt="pic")
        page.add_script(code="var a=1;")
        html = page.render()
        assert html.startswith("<!DOCTYPE html>")
        assert "<title>My Title</title>" in html
        assert "<h1>Hello</h1>" in html
        assert "<p>World</p>" in html
        assert '<a href="/x">link</a>' in html
        assert '<img src="/y.png"' in html
        assert "<script>var a=1;</script>" in html

    def test_form(self):
        page = HtmlPage("Login")
        page.add_form("/login", [("user", "text"), ("pass", "password")])
        html = page.render()
        assert '<form action="/login" method="POST">' in html
        assert 'type="password"' in html

    def test_nav_and_table(self):
        page = HtmlPage("T")
        page.add_nav([("/a", "A"), ("/b", "B")])
        page.add_table([("x", "y"), ("1", "2")])
        html = page.render()
        assert html.count("<li>") == 2
        assert html.count("<tr>") == 2

    def test_deterministic(self):
        def build():
            page = HtmlPage("T")
            page.add_paragraph("p")
            return page.render()
        assert build() == build()
