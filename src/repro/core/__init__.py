"""D2 core: locality keys, lookup cache, configuration, system facades."""
