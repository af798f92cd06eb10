"""Shared test configuration.

pytest puts this directory on ``sys.path`` (its default ``prepend``
import mode), so test modules anywhere under it import the shared
helpers here, such as ``tc_reference``.
"""
