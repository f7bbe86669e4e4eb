"""Multi-tenant serving: many tracing sessions, disjoint shard sets.

The paper's backend serves a *fleet* — every traced host ships into
the same cluster, isolated by index and quota.  :class:`TenantBackend`
models that: each registered tenant owns its own store (a
:class:`~repro.backend.router.ShardedDocumentStore` by default, so
tenants occupy disjoint shard sets by construction) behind a
:class:`TenantStore` facade that enforces a per-tenant document quota
on every ingest path.  A quota breach rejects the whole request
(ES-style) with :class:`TenantQuotaExceeded` before any document is
indexed, so a noisy tenant cannot displace its neighbours.

``dio fleet`` renders :meth:`TenantBackend.fleet_report` — the
per-tenant ``dio health`` rollup — and :meth:`bind_telemetry` exposes
the ``dio_tenant_*`` families (tenant-labelled docs, quota
utilisation, rejections, queries).
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.backend.router import ShardedDocumentStore, create_store
from repro.backend.store import StoreError


class TenantQuotaExceeded(StoreError):
    """An ingest request would push a tenant over its document quota."""


def _docs_held(store) -> int:
    """Documents currently held by a (plain or sharded) store."""
    if isinstance(store, ShardedDocumentStore):
        return sum(len(index) for shard in store.shards
                   for index in shard._indices.values())
    return sum(len(index) for index in store._indices.values())


class TenantStore:
    """A quota-enforcing facade over one tenant's store.

    Everything except the ingest entry points delegates verbatim, so a
    tracer (or the DST pipeline) can use a tenant store wherever it
    uses a plain one.  Writes go through ``bulk``/``bulk_columnar``.
    """

    def __init__(self, name: str, inner, quota_docs: Optional[int] = None):
        self.name = name
        self.inner = inner
        self.quota_docs = quota_docs
        self.quota_rejections = 0
        self.rejected_docs = 0

    def _admit(self, incoming: int) -> None:
        quota = self.quota_docs
        if quota is None:
            return
        if _docs_held(self.inner) + incoming > quota:
            self.quota_rejections += 1
            self.rejected_docs += incoming
            raise TenantQuotaExceeded(
                f"tenant {self.name!r} over quota: "
                f"{_docs_held(self.inner)} held + {incoming} incoming "
                f"> {quota}")

    def bulk(self, index: str, sources: Iterable[dict]) -> int:
        sources = list(sources)
        self._admit(len(sources))
        return self.inner.bulk(index, sources)

    def bulk_columnar(self, index: str, batch) -> int:
        self._admit(len(batch))
        return self.inner.bulk_columnar(index, batch)

    def docs_held(self) -> int:
        return _docs_held(self.inner)

    def quota_utilisation(self) -> float:
        if not self.quota_docs:
            return 0.0
        return self.docs_held() / self.quota_docs

    def __getattr__(self, name: str):
        return getattr(self.inner, name)


class TenantBackend:
    """A fleet of per-tenant stores on disjoint shard sets.

    ``shards_per_tenant`` > 1 gives every tenant its own
    :class:`ShardedDocumentStore`; ``1`` gives each a plain
    :class:`DocumentStore` (the differential-oracle configuration),
    routed by ``pid``.  Every tenant's quota is ``default_quota_docs``.
    """

    def __init__(self, shards_per_tenant: int = 2,
                 default_quota_docs: Optional[int] = None) -> None:
        if not isinstance(shards_per_tenant, int) or shards_per_tenant < 1:
            raise StoreError(f"shards_per_tenant must be a positive int: "
                             f"{shards_per_tenant!r}")
        self.shards_per_tenant = shards_per_tenant
        self.default_quota_docs = default_quota_docs
        self._tenants: dict[str, TenantStore] = {}

    def register(self, name: str) -> TenantStore:
        """Create a tenant (error if it exists); returns its store."""
        if name in self._tenants:
            raise StoreError(f"tenant {name!r} already exists")
        tenant = TenantStore(
            name, create_store(shard_count=self.shards_per_tenant),
            self.default_quota_docs)
        self._tenants[name] = tenant
        return tenant

    def tenant_names(self) -> list[str]:
        return sorted(self._tenants)

    def fleet_report(self) -> dict:
        """Per-tenant ``dio health`` rollup, as plain data.

        One entry per tenant: documents held, quota and utilisation,
        rejected requests/docs, shard count, query/bulk traffic, and a
        coarse status (``ok`` / ``saturated`` / ``rejecting``).
        """
        tenants = {}
        for name in self.tenant_names():
            tenant = self._tenants[name]
            inner = tenant.inner
            shard_count = getattr(inner, "shard_count", 1)
            utilisation = tenant.quota_utilisation()
            if tenant.quota_rejections:
                status = "rejecting"
            elif tenant.quota_docs and utilisation >= 0.9:
                status = "saturated"
            else:
                status = "ok"
            tenants[name] = {
                "status": status,
                "docs": tenant.docs_held(),
                "quota_docs": tenant.quota_docs,
                "quota_utilisation": round(utilisation, 4),
                "quota_rejections": tenant.quota_rejections,
                "rejected_docs": tenant.rejected_docs,
                "shard_count": shard_count,
                "bulk_requests": inner.bulk_requests,
                "documents_indexed": inner.documents_indexed,
                "queries": inner.queries,
            }
        return {
            "tenants": tenants,
            "tenant_count": len(tenants),
            "total_docs": sum(t["docs"] for t in tenants.values()),
            "total_rejections": sum(t["quota_rejections"]
                                    for t in tenants.values()),
        }

    def bind_telemetry(self, registry) -> None:
        """Expose the ``dio_tenant_*`` families on ``registry``."""
        registry.gauge(
            "dio_tenant_count",
            "Tenants registered on this backend.",
        ).set_function(lambda: len(self._tenants))
        docs = registry.gauge(
            "dio_tenant_docs",
            "Documents held per tenant.", labelnames=("tenant",))
        shards = registry.gauge(
            "dio_tenant_shards",
            "Shards owned by the tenant (disjoint across tenants).",
            labelnames=("tenant",))
        for name in self.tenant_names():
            tenant = self._tenants[name]
            docs.labels(tenant=name).set_function(
                lambda t=tenant: t.docs_held())
            shards.labels(tenant=name).set_function(
                lambda t=tenant: getattr(t.inner, "shard_count", 1))
