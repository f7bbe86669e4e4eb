"""One document's source by id, read the way a request reads a hit.

The stores have no by-id read of their own: a dashboard window, a
Fig. 2 table and an export reach documents through
``Index.sources(rows)``, which builds (and memoises) the ``_source``
of those rows alone.  :func:`get_doc` is that path for one row, so a
test can pin what a read builds and that a second read returns the
same dict.
"""


def get_doc(store, index, doc_id):
    """The ``_source`` of ``doc_id`` in ``index`` (``None`` if absent);
    on a shard router, read off the shard that holds the id."""
    for shard in getattr(store, "shards", [store]):
        target = shard._indices[index]
        row = target.columns.row_of.get(doc_id)
        if row is not None:
            return target.sources((row,))[0]
    return None
