"""D2-FS: blocks, namespace, key schemes, FS layer, write-back cache."""
