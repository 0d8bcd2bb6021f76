"""Test-side records of what a source sends.

A source keeps neither the alerts it emits nor their delivery outcomes
(DESIGN §6d, "What an alert leaves behind"): a caller keeps what ``emit``
and ``emit_to`` return.  A test of a source that emits on its own (the
Aladdin gateway, the proxies, the desktop assistant, WISH) installs one
of these on the source instead.
"""


def record_alerts(source):
    """Every alert ``source`` makes, in order.  ``emit``, ``emit_to`` and
    WISH's per-request emission build theirs with ``make_alert``; an
    email-only legacy service builds one per ``publish``."""
    alerts = []
    name = "make_alert" if hasattr(source, "make_alert") else "publish"
    make = getattr(source, name)

    def recording(*args, **kwargs):
        alert = make(*args, **kwargs)
        alerts.append(alert)
        return alert

    setattr(source, name, recording)
    return alerts


def record_runs(source):
    """Every delivery run ``source`` starts, in order: the test wraps
    ``deliver``, which ``emit`` and ``emit_to`` call."""
    runs = []
    deliver = source.deliver

    def recording(alert, book):
        run = deliver(alert, book)
        runs.append(run)
        return run

    source.deliver = recording
    return runs
