"""D2-Store: block directory, pointers, migration, redundancy, caching."""
