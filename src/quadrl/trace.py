"""The one seam for counting and timing a run. A `span`ned function runs as
it is while `recorder` is None; else ``recorder(name, fn, args, kwargs)``
runs it, and must call ``fn(*args, **kwargs)`` once and return its result."""

recorder = None


def span(fn):
    """fn as the span `<module's last part>.<name>`; it pickles as fn does."""
    name = f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"

    def spanned(*args, **kwargs):
        if recorder is None:
            return fn(*args, **kwargs)
        return recorder(name, fn, args, kwargs)

    for attr in ("__name__", "__qualname__", "__doc__", "__module__"):
        setattr(spanned, attr, getattr(fn, attr))
    return spanned
