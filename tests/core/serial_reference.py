"""Row-at-a-time reference SPS collector: the oracle for the engine.

This is the original serial collector, kept out of production: one query
at a time through the *non-deferred* ``get_spot_placement_scores``,
retries and gap records included, each row landed with its own
``archive.append``.  ``tests/core/test_parallel.py`` requires the
production collector to match it on archive bytes, reports and
per-account quota charges.
"""

from repro.cloudsim import (
    CredentialExpiredError,
    QuotaExceededError,
    make_query_key,
)
from repro.core.archive import SPS_TABLE
from repro.core.collectors import CollectionReport, SpsCollector


class SerialSpsCollector(SpsCollector):
    """Drop-in for :class:`SpsCollector` with the legacy control flow."""

    def _attempt(self, query):
        """One try of one planned query: acquire an account, call the API."""
        key = make_query_key([query.instance_type], query.regions,
                             query.target_capacity,
                             query.single_availability_zone)
        account = self.accounts.acquire(key, self.cloud.clock.now())
        client = self.cloud.client(account)
        try:
            return client.get_spot_placement_scores(
                [query.instance_type], list(query.regions),
                target_capacity=query.target_capacity,
                single_availability_zone=query.single_availability_zone)
        except CredentialExpiredError:
            account.refresh_credentials()
            raise

    def run_query(self, query) -> CollectionReport:
        """Issue one planned query; a terminal failure archives a gap."""
        report = CollectionReport(queries_issued=1)
        if self.resilience is None:
            try:
                rows = self._attempt(query)
            except QuotaExceededError:
                report.queries_failed = 1
                return report
        else:
            outcome = self.resilience.call(
                (self.query_fingerprint(query),), lambda: self._attempt(query))
            report.apply_outcome(outcome)
            if not outcome.ok:
                self.archive.put_gap(
                    "sps", self.query_fingerprint(query), outcome.gap_reason,
                    outcome.attempts, self.cloud.clock.now())
                return report
            rows = outcome.value
        now = self.cloud.clock.now()
        for row in rows:
            zone = row["AvailabilityZoneId"]
            if zone is None:
                continue
            report.records_written += self.archive.append(SPS_TABLE, [
                (query.instance_type, row["Region"], zone, row["Score"], now)])
        return report

    def collect(self) -> CollectionReport:
        """Run the full plan once (one collection round)."""
        if self.resilience is not None:
            self.resilience.start_round()
        total = CollectionReport()
        for query in self.plan.queries:
            total = total.merge(self.run_query(query))
        total.accounts_used = self.accounts_used_now()
        return total


def use_serial_collector(service) -> None:
    """Swap ``service``'s SPS collector for the reference, in place
    (``collect_once`` and direct ``sps_collector.collect()`` calls)."""
    production = service.sps_collector
    service.sps_collector = SerialSpsCollector(
        production.cloud, production.archive, production.accounts,
        production.plan, resilience=production.resilience)
