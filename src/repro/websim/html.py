"""Deterministic HTML page generation.

The clustering pipeline measures pages by tag multisets, tag order, title,
JavaScript, embedded resources (``src=``) and outgoing links (``href=``),
so generated pages carry realistic amounts of all of these.  Everything is
plain string building — no templates, no randomness beyond the caller's
seeded choices — so a site renders identically across runs.
"""


class HtmlPage:
    """Incremental builder for a complete HTML document."""

    def __init__(self, title, generator=None, language="en"):
        self.title = title
        self.language = language
        self._head = []
        self._body = []
        if generator:
            self.add_meta("generator", generator)

    # -- head ---------------------------------------------------------------

    def add_meta(self, name, content):
        self._head.append('<meta name="%s" content="%s">' % (name, content))
        return self

    def add_stylesheet(self, href):
        self._head.append('<link rel="stylesheet" href="%s">' % href)
        return self

    def add_head_script(self, src=None, code=None):
        self._head.append(_script_tag(src, code))
        return self

    # -- body ----------------------------------------------------------------

    def add_heading(self, text, level=1):
        self._body.append("<h%d>%s</h%d>" % (level, text, level))
        return self

    def add_paragraph(self, text):
        self._body.append("<p>%s</p>" % text)
        return self

    def add_div(self, inner_html, css_class=None):
        if css_class:
            self._body.append('<div class="%s">%s</div>'
                              % (css_class, inner_html))
        else:
            self._body.append("<div>%s</div>" % inner_html)
        return self

    def add_nav(self, links):
        """A navigation bar: list of (href, text) pairs."""
        items = "".join('<li><a href="%s">%s</a></li>' % (href, text)
                        for href, text in links)
        self._body.append("<nav><ul>%s</ul></nav>" % items)
        return self

    def add_link(self, href, text):
        self._body.append('<a href="%s">%s</a>' % (href, text))
        return self

    def add_image(self, src, alt=""):
        self._body.append('<img src="%s" alt="%s">' % (src, alt))
        return self

    def add_script(self, src=None, code=None):
        self._body.append(_script_tag(src, code))
        return self

    def add_form(self, action, fields, method="POST", submit_label="Submit"):
        """A form with named input fields (login pages, phishing pages)."""
        inputs = "".join(
            '<input type="%s" name="%s">' % (field_type, name)
            for name, field_type in fields)
        self._body.append(
            '<form action="%s" method="%s">%s'
            '<input type="submit" value="%s"></form>'
            % (action, method, inputs, submit_label))
        return self

    def add_table(self, rows):
        body = "".join(
            "<tr>%s</tr>" % "".join("<td>%s</td>" % cell for cell in row)
            for row in rows)
        self._body.append("<table>%s</table>" % body)
        return self

    def add_raw(self, html):
        self._body.append(html)
        return self

    def render(self):
        """Serialise to a full HTML document string."""
        head = "".join(["<title>%s</title>" % self.title] + self._head)
        body = "".join(self._body)
        return ('<!DOCTYPE html><html lang="%s"><head>%s</head>'
                "<body>%s</body></html>" % (self.language, head, body))


def _script_tag(src, code):
    if src is not None:
        return '<script src="%s"></script>' % src
    return "<script>%s</script>" % (code or "")
