"""NIC substrate: physical NIC model, software bridge, and Linux-style
bonding used by the remote-NIC sharing mechanism (Section 5.2.3).
"""
